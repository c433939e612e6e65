package flow

import (
	"context"
	"fmt"

	"repro/internal/budget"
	"repro/internal/seq"
	"repro/internal/sgraph"
)

// SequentialRow is the result of the sequential flow: the paper's full
// Section 4.2 pipeline — enhanced-MFVS partitioning, steady-state
// probability estimation, then MA/MP phase assignment of the resulting
// combinational domino block.
type SequentialRow struct {
	Name string
	// FFs is the flip-flop count; Cut how many the enhanced MFVS cut;
	// PseudoInputs how many pseudo primary inputs the partition has.
	FFs, Cut, PseudoInputs int
	MA, MP                 Synthesis
	AreaPenaltyPct         float64
	PowerSavingPct         float64
}

// RunSequential executes the sequential flow on a circuit: partition with
// the enhanced MFVS, iterate cut-flip-flop probabilities to a fixed
// point, then run both phase assignments on the partitioned block using
// the steady-state probabilities as block input probabilities. It runs
// under the configured budgets and degradation chain, as RunCorpus does.
func RunSequential(c *seq.Circuit, cfg Config) (*SequentialRow, error) {
	row, _, _, err := runSequentialDegraded(context.Background(), c, cfg)
	return row, err
}

// runSequential is RunSequential under an optional cancellation/budget
// token.
func runSequential(c *seq.Circuit, cfg Config, tok *budget.T) (*SequentialRow, error) {
	cut := c.Cut(sgraph.DefaultOptions())
	// Steady-state probabilities of the cut flip-flops become the
	// pseudo-input probabilities of the block. SteadyStateProbs
	// partitions the circuit at the cut and returns that partition.
	inputProbs := make([]float64, c.Comb.NumInputs())
	for _, pos := range c.RealInputs {
		inputProbs[pos] = cfg.InputProb
	}
	part, nodeProbs, err := c.SteadyStateProbs(seq.SteadyOptions{InputProbs: inputProbs, Cut: cut})
	if err != nil {
		return nil, fmt.Errorf("flow: steady state: %w", err)
	}
	blockProbs := make([]float64, part.Block.NumInputs())
	for pos, in := range part.Inputs {
		if in.FF >= 0 {
			name := "ns_" + c.FFs[in.FF].Name
			oi := part.Block.OutputByName(name)
			if oi >= 0 {
				blockProbs[pos] = nodeProbs[part.Block.Outputs()[oi].Driver]
			} else {
				blockProbs[pos] = 0.5
			}
		} else {
			blockProbs[pos] = cfg.InputProb
		}
	}

	net := Prepare(part.Block)
	// Prepare preserves the input interface (inputs are never dropped),
	// so blockProbs stays aligned.
	row := &SequentialRow{
		Name:         c.Comb.Name,
		FFs:          len(c.FFs),
		Cut:          len(cut),
		PseudoInputs: part.PseudoInputCount(),
	}

	// Both syntheses route through the same search wiring
	// (synthesizeMAAssignment / synthesizeMPAssignment) and the same
	// measurement (synthesize) as the combinational flow, so sequential
	// rows pick up cone-table scoring and the pluggable strategies with
	// no duplicated logic. Both EstPowers are the measured block's
	// estimate under the steady-state probabilities.
	maAsg, maRes, err := synthesizeMAAssignment(net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MA: %w", err)
	}
	ma, err := synthesize(maAsg, maRes, blockProbs, cfg, tok, false, 0)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MA: %w", err)
	}
	mpAsg, mpRes, _, err := synthesizeMPAssignment(net, blockProbs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MP: %w", err)
	}
	mp, err := synthesize(mpAsg, mpRes, blockProbs, cfg, tok, false, 0)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MP: %w", err)
	}
	row.MA, row.MP = *ma, *mp
	row.AreaPenaltyPct, row.PowerSavingPct = savings(ma, mp)
	return row, nil
}
