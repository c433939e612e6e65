package prob

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/logic"
)

func mcTestNet() *logic.Network {
	n := logic.New("mc")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.MarkOutput("f", n.AddOr(n.AddAnd(a, b), n.AddXor(b, c)))
	return n
}

// TestMonteCarloDeterministic: same (vectors, seed) → identical
// probabilities; a different seed moves them.
func TestMonteCarloDeterministic(t *testing.T) {
	n := mcTestNet()
	probs := []float64{0.5, 0.3, 0.7}
	a, err := MonteCarloLits(n, 3, nil, probs, 4096, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloLits(n, 3, nil, probs, 4096, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: %v vs %v on identical seeds", i, a[i], b[i])
		}
	}
	c, err := MonteCarloLits(n, 3, nil, probs, 4096, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not move any estimate")
	}
}

// TestMonteCarloMatchesExact: estimates converge on the exact BDD
// probabilities, including rail correlation through shared literals.
func TestMonteCarloMatchesExact(t *testing.T) {
	n := mcTestNet()
	// Input positions 1 and 2 are the true and complemented rails of
	// variable 1: correlation the naive estimator would miss.
	lits := []bdd.InputLit{{Var: 0}, {Var: 1}, {Var: 1, Neg: true}}
	varProbs := []float64{0.5, 0.25}
	exact, err := ExactLits(bdd.New(2), n, lits, varProbs)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloLits(n, 2, lits, varProbs, 1<<16, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if d := math.Abs(exact[i] - mc[i]); d > 0.02 {
			t.Errorf("node %d: exact %.4f, mc %.4f (|Δ| = %.4f)", i, exact[i], mc[i], d)
		}
	}
}

// TestMonteCarloCancellation: a cancelled token aborts the run.
func TestMonteCarloCancellation(t *testing.T) {
	n := mcTestNet()
	tok := budget.New(0, 0)
	tok.Cancel(nil)
	if _, err := MonteCarloLits(n, 3, nil, []float64{0.5, 0.5, 0.5}, 1<<20, 1, tok); !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// countingSource counts the uniform words a generator draws.
type countingSource struct {
	rand.Source64
	draws int
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.Source64.Uint64()
}

func newCountingRand(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// TestBernoulliWordConstants: p ≤ 0 (or rounding to 0 at BernoulliBits
// digits) gives the all-zero word and p ≥ 1 (or rounding to 1) the
// all-ones word, and neither consumes a random draw.
func TestBernoulliWordConstants(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want uint64
	}{
		{-0.5, 0}, {0, 0}, {1e-12, 0},
		{1, ^uint64(0)}, {1.5, ^uint64(0)}, {1 - 1e-12, ^uint64(0)},
	} {
		rng, src := newCountingRand(1)
		if got := BernoulliWord(rng, c.p); got != c.want {
			t.Errorf("p=%v: word %#x, want %#x", c.p, got, c.want)
		}
		if src.draws != 0 {
			t.Errorf("p=%v: consumed %d draws, want 0", c.p, src.draws)
		}
	}
}

// TestBernoulliWordDraws: a probability p = q/2^BernoulliBits consumes
// exactly BernoulliBits − tz(q) draws, one per significant binary digit.
func TestBernoulliWordDraws(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 1}, {0.25, 2}, {0.75, 2}, {1.0 / 8192, 13}, {0.3, BernoulliBits}} {
		rng, src := newCountingRand(2)
		BernoulliWord(rng, c.p)
		if src.draws != c.want {
			t.Errorf("p=%v: consumed %d draws, want %d", c.p, src.draws, c.want)
		}
	}
}

// TestBernoulliWordLaneShare: over 4,096 words the share of set lanes
// lies within 4σ of the quantized probability.
func TestBernoulliWordLaneShare(t *testing.T) {
	const words = 4096
	for _, p := range []float64{0.1, 0.3, 1.0 / 3, 0.9} {
		rng := rand.New(rand.NewSource(3))
		ones := 0
		for i := 0; i < words; i++ {
			ones += bits.OnesCount64(BernoulliWord(rng, p))
		}
		pq := math.Round(p*(1<<BernoulliBits)) / (1 << BernoulliBits)
		lanes := float64(words * 64)
		sigma := math.Sqrt(pq * (1 - pq) / lanes)
		if share := float64(ones) / lanes; math.Abs(share-pq) > 4*sigma {
			t.Errorf("p=%v: lane share %.5f, want %.5f ± %.5f (4σ)", p, share, pq, 4*sigma)
		}
	}
}

// TestBernoulliWordGolden pins the generator's stream: an FNV-1a digest
// of the first 64 words for fixed (seed, p) pairs. Every sim Report and
// every Monte-Carlo probability depends on this stream bit for bit, so a
// change to it fails here by name, not only in the pinned rows.
func TestBernoulliWordGolden(t *testing.T) {
	for _, c := range []struct {
		seed int64
		p    float64
		want uint64
	}{
		{1, 0.5, 0xb9954c5d64f3755a},
		{2, 0.3, 0xbf68c6c99b9d0ad9},
		{3, 0.9, 0x892df4e522d46c42},
		{4, 1.0 / 8192, 0x7da144b97d054b25},
		{5, 0.75, 0x125284008d0804d1},
		{6, 1.0 / 3, 0x4fc846f350c1fd48},
	} {
		rng := rand.New(rand.NewSource(c.seed))
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 64; i++ {
			binary.LittleEndian.PutUint64(buf[:], BernoulliWord(rng, c.p))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("seed %d, p=%v: stream digest %#016x, want %#016x", c.seed, c.p, got, c.want)
		}
	}
}
