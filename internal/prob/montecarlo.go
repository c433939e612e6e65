package prob

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/logic"
)

// Monte-Carlo signal-probability estimation: the engine of last resort
// in the flow's degradation chain. It builds no BDDs at all — node
// probabilities are estimated by bit-parallel random simulation
// (logic.EvalWide over 64-cycle windows of packed Bernoulli draws from
// BernoulliWord, the same generator internal/sim uses), so its cost is
// O(vectors × gates) regardless of how pathological the circuit's BDDs
// are, and it can never trip the BDD node budget. Results are a pure
// function of (network, lits, varProbs, vectors, seed): deterministic,
// worker-count independent, and therefore cacheable like every other
// engine's rows.

// mcPollWindows is how many 64-cycle windows pass between cancellation
// polls of the budget token.
const mcPollWindows = 16

// BernoulliBits is the resolution of BernoulliWord: probabilities are
// rounded to this many binary digits (quantization error ≤ 2^-31, far
// below Monte-Carlo noise at any realistic vector count; exact for
// dyadic probabilities such as 0, 0.25, 0.5, 1).
const BernoulliBits = 30

// BernoulliWord draws 64 independent Bernoulli(p) lanes as one uint64
// using the dyadic-expansion trick: with p = 0.b1b2…bK in binary, fold
// one uniform word per digit from least to most significant — w = r|w
// for a 1 digit, r&w for a 0 digit — which halves the lane probability
// per step and adds ½ at every 1 digit. Trailing zero digits are
// skipped (they cannot change an all-zero word), so the rng consumption
// is a pure function of p: none for p ≤ 0 or p ≥ 1, one draw for
// p = 0.5, at most BernoulliBits draws in general. Compared with 64
// Float64 draws per word this is what keeps the packed simulators from
// being rng-bound. internal/sim's input vectors and MonteCarloLits both
// draw through it, so each stream is fixed bit for bit by its seed.
func BernoulliWord(rng *rand.Rand, p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	q := uint32(p*(1<<BernoulliBits) + 0.5)
	if p <= 0 || q == 0 {
		return 0
	}
	if q >= 1<<BernoulliBits {
		return ^uint64(0)
	}
	tz := uint(bits.TrailingZeros32(q))
	q >>= tz
	w := uint64(0)
	for j := uint(0); j < BernoulliBits-tz; j++ {
		r := rng.Uint64()
		if q&1 == 1 {
			w |= r
		} else {
			w &= r
		}
		q >>= 1
	}
	return w
}

// DefaultMCVectors is MonteCarloLits' vector count when the caller
// passes none.
const DefaultMCVectors = 2048

// MonteCarloLits estimates the probability of every node of n over an
// external variable space, like ExactLits: input position p of the
// network is the literal lits[p] (nil lits is the identity mapping,
// requiring numVars == NumInputs), and varProbs gives the Bernoulli
// probability of each variable. Because two inputs mapped to the same
// variable draw from the same random word, rail correlation is
// respected exactly as in the exact engine.
//
// vectors defaults to DefaultMCVectors when non-positive. tok, when
// non-nil, is polled every mcPollWindows windows for cancellation.
func MonteCarloLits(n *logic.Network, numVars int, lits []bdd.InputLit, varProbs []float64, vectors int, seed int64, tok *budget.T) ([]float64, error) {
	if lits != nil && len(lits) != n.NumInputs() {
		return nil, fmt.Errorf("prob: %d literals for %d inputs", len(lits), n.NumInputs())
	}
	if lits == nil && numVars != n.NumInputs() {
		return nil, fmt.Errorf("prob: identity literals need %d vars, got %d", n.NumInputs(), numVars)
	}
	if len(varProbs) != numVars {
		return nil, fmt.Errorf("prob: %d var probs for %d vars", len(varProbs), numVars)
	}
	if vectors <= 0 {
		vectors = DefaultMCVectors
	}
	rng := rand.New(rand.NewSource(seed))
	varWords := make([]uint64, numVars)
	inWords := make([]uint64, n.NumInputs())
	scratch := make([]uint64, n.NumNodes())
	counts := make([]int64, n.NumNodes())
	for done, win := 0, 0; done < vectors; win++ {
		if tok != nil && win%mcPollWindows == 0 {
			if err := tok.Err(); err != nil {
				return nil, err
			}
		}
		width := vectors - done
		if width > 64 {
			width = 64
		}
		mask := ^uint64(0) >> (64 - uint(width))
		for v := range varWords {
			varWords[v] = BernoulliWord(rng, varProbs[v])
		}
		for pos := range inWords {
			if lits == nil {
				inWords[pos] = varWords[pos]
			} else if lits[pos].Neg {
				inWords[pos] = ^varWords[lits[pos].Var]
			} else {
				inWords[pos] = varWords[lits[pos].Var]
			}
		}
		values := n.EvalWide(inWords, scratch)
		for i, w := range values {
			counts[i] += int64(bits.OnesCount64(w & mask))
		}
		done += width
	}
	p := make([]float64, n.NumNodes())
	for i, c := range counts {
		p[i] = float64(c) / float64(vectors)
	}
	return p, nil
}
