package flow

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/logic"
)

// The paper's conclusion proposes "integrating the choice of phase
// assignment with timing optimization" as future work, and its power
// model already carries the hook: the gate-type penalty P_i, set to zero
// in the paper's experiments. Negative phases rewrite OR cones into AND
// stacks over complemented rails (De Morgan), and AND stacks are the
// slow domino structures; a nonzero P_i makes the MinPower objective
// timing-aware by taxing exactly those cells.
//
// RunCircuitTimingAware implements that integration: the MP search runs
// with the penalized objective, and the resulting circuit goes through
// the same timed flow as Table 2. Compare with RunCircuitTimed at
// penalty 0 via BenchmarkAblationPenalty.

// TimingAwareResult reports the penalized-MP timed flow next to the
// plain-MP one.
type TimingAwareResult struct {
	Name string
	// Plain is the Table 2 row with penalty 0; Penalized the row with
	// the AND penalty applied during phase assignment.
	Plain, Penalized *Row
	// PenalizedAndCells / PlainAndCells count AND-type domino cells in
	// the MP blocks — the structural quantity the penalty steers.
	PlainAndCells, PenalizedAndCells int
	// PlainResizeSteps / PenalizedResizeSteps show how much timing
	// repair each MP circuit needed.
	PlainResizeSteps, PenalizedResizeSteps int
}

// RunCircuitTimingAware runs the timed flow twice — with and without the
// AND-stack penalty in the MP objective — and reports both.
func RunCircuitTimingAware(c gen.NamedCircuit, cfg Config, andPenalty float64) (*TimingAwareResult, error) {
	cfg.defaults()
	if andPenalty <= 0 {
		return nil, fmt.Errorf("flow: andPenalty must be positive")
	}
	plain, err := RunCircuitTimed(c, cfg)
	if err != nil {
		return nil, err
	}
	pcfg := cfg
	lib := *cfg.Lib
	lib.AndPenalty = andPenalty
	pcfg.Lib = &lib
	penalized, err := RunCircuitTimed(c, pcfg)
	if err != nil {
		return nil, err
	}
	out := &TimingAwareResult{
		Name:                 c.Name,
		Plain:                plain,
		Penalized:            penalized,
		PlainResizeSteps:     plain.MP.ResizeSteps,
		PenalizedResizeSteps: penalized.MP.ResizeSteps,
	}
	out.PlainAndCells = andCellCount(&plain.MP)
	out.PenalizedAndCells = andCellCount(&penalized.MP)
	return out, nil
}

func andCellCount(s *Synthesis) int {
	n := 0
	for i := range s.Block.Cells {
		if s.Block.Cells[i].Kind == logic.KindAnd {
			n++
		}
	}
	return n
}
