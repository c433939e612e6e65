package flow

import (
	"context"
	"fmt"

	"repro/internal/budget"
	"repro/internal/prob"
	"repro/internal/seq"
	"repro/internal/sgraph"
)

// RunSequential executes the sequential flow on a circuit — the paper's
// full Section 4.2 pipeline: partition with the enhanced MFVS, iterate
// cut-flip-flop probabilities to a fixed point, then run both phase
// assignments on the partitioned block using the steady-state
// probabilities as block input probabilities. It runs under the
// configured budgets and degradation chain, as RunCorpus does.
func RunSequential(c *seq.Circuit, cfg Config) (*Row, error) {
	row, _, _, err := runSequentialDegraded(context.Background(), c, cfg)
	return row, err
}

// runSequential is RunSequential under an optional budget token: the
// steady state runs the stage's engine under tok, the partitioned block
// takes the configured technology-independent pipeline (resynthesis
// included), and the steady state's block-input probabilities feed the
// MA/MP pair every row kind shares.
func runSequential(c *seq.Circuit, cfg Config, tok *budget.T) (*Row, error) {
	cut := c.Cut(sgraph.DefaultOptions())
	part, blockProbs, _, err := c.SteadyStateProbs(seq.SteadyOptions{
		InputProbs: prob.Uniform(c.Comb, cfg.InputProb), Cut: cut, Est: cfg.estOptions(tok),
	})
	if err != nil {
		return nil, fmt.Errorf("flow: steady state: %w", err)
	}
	// prepare preserves the input interface (inputs are never dropped
	// or reordered), so blockProbs stays aligned.
	net, err := prepare(part.Block, cfg, tok)
	if err != nil {
		return nil, err
	}
	ma, mp, err := synthesizePair(net, blockProbs, cfg, tok, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Comb.Name, err)
	}
	row := &Row{
		Name:         c.Comb.Name,
		FFs:          len(c.FFs),
		Cut:          len(cut),
		PseudoInputs: part.PseudoInputCount(),
		MA:           *ma,
		MP:           *mp,
	}
	row.AreaPenaltyPct, row.PowerSavingPct = savings(ma, mp)
	return row, nil
}
