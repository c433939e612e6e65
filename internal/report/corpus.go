package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/flow"
)

// SequentialTable renders sequential-flow rows in the layout dominoflow
// -seq prints (shared by the generated-circuit path and the corpus
// engine for latched models).
func SequentialTable(title string, rows []*flow.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %5s %5s %7s | %6s %9s | %6s %9s | %9s %9s\n",
		"circuit", "#FFs", "cut", "pseudo", "MA sz", "MA pwr", "MP sz", "MP pwr", "%AreaPen", "%PwrSav")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5d %5d %7d | %6d %9.3f | %6d %9.3f | %9.1f %9.1f\n",
			r.Name, r.FFs, r.Cut, r.PseudoInputs,
			r.MA.Size, r.MA.SimPower, r.MP.Size, r.MP.SimPower,
			r.AreaPenaltyPct, r.PowerSavingPct)
	}
	return b.String()
}

// CorpusTable renders a corpus batch: combinational rows in the paper's
// table layout, latched rows in the sequential layout, and failed rows
// listed last with their isolated errors.
func CorpusTable(title string, rows []*flow.CorpusRow) string {
	var comb, seqRows []*flow.Row
	var failed []*flow.CorpusRow
	for _, r := range rows {
		switch {
		case r.Err != "":
			failed = append(failed, r)
		case r.Sequential:
			seqRows = append(seqRows, r.Row)
		default:
			comb = append(comb, r.Row)
		}
	}
	var b strings.Builder
	if len(comb) > 0 {
		b.WriteString(Table(title, comb))
	}
	if len(seqRows) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(SequentialTable("Sequential circuits (enhanced-MFVS partition + steady-state probabilities)", seqRows))
	}
	if len(failed) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%d circuit(s) failed:\n", len(failed))
		for _, r := range failed {
			fmt.Fprintf(&b, "  %-24s %s\n", r.Path, r.Err)
		}
	}
	return b.String()
}

// CorpusSchemaVersion identifies the CorpusRecord JSONL schema. Version
// history:
//
//	1 — PR 5: the original corpus record.
//	2 — adds timed_out (present only on rows whose error came from the
//	    per-circuit timeout or from cancellation — the documented
//	    non-deterministic rows, which internal/serve never caches).
//	3 — adds engine and budget_trips (present only on rows the
//	    resource-budget degradation chain touched: engine names the
//	    fallback probability engine that produced the row, budget_trips
//	    counts the BDD node-cap and sim vector-clamp trips across its
//	    attempted stages). Rows no budget touched serialize byte-for-byte
//	    as in version 2.
//	4 — engine may now also be "exact-sifted": the configured exact
//	    engine blew the BDD node budget but the retry with in-place
//	    dynamic reordering (Rudell sifting) completed — full-accuracy
//	    probabilities under a sifted variable order. No field changes;
//	    rows untouched by reordering serialize byte-for-byte as in
//	    version 3.
//
// dominod reports the version in the X-Dominod-Schema-Version response
// header of its row streams; README.md documents the field list.
const CorpusSchemaVersion = 4

// CorpusRecord is the flat JSONL projection of one corpus row — one
// line per circuit, streamed while the batch runs. Size/power fields
// come from the Table 1/2 flow for combinational circuits and from the
// partitioned sequential flow (sequential=true) for latched ones; both
// emit every measurement field explicitly (zero is a valid value), so
// failed rows are recognizable only by a non-empty error — their
// measurement fields read zero. met_timing is present only on
// combinational rows (the sequential flow has no timing target).
// wall_seconds is wall-clock and not part of the deterministic row
// contract; timed_out marks the rows whose *error* is equally
// non-deterministic.
type CorpusRecord struct {
	Index          int     `json:"index"`
	Name           string  `json:"name"`
	Path           string  `json:"path"`
	Format         string  `json:"format"`
	Sequential     bool    `json:"sequential"`
	Error          string  `json:"error,omitempty"`
	TimedOut       bool    `json:"timed_out,omitempty"`
	Engine         string  `json:"engine,omitempty"`
	BudgetTrips    int     `json:"budget_trips,omitempty"`
	PIs            int     `json:"pis"`
	POs            int     `json:"pos"`
	FFs            int     `json:"ffs"`
	Cut            int     `json:"cut"`
	PseudoInputs   int     `json:"pseudo_inputs"`
	MASize         int     `json:"ma_size"`
	MAPower        float64 `json:"ma_power"`
	MACritical     float64 `json:"ma_critical"`
	MPSize         int     `json:"mp_size"`
	MPPower        float64 `json:"mp_power"`
	MPCritical     float64 `json:"mp_critical"`
	AreaPenaltyPct float64 `json:"area_penalty_pct"`
	PowerSavingPct float64 `json:"power_saving_pct"`
	MetTiming      *bool   `json:"met_timing,omitempty"`
	WallSec        float64 `json:"wall_seconds"`
}

// NewCorpusRecord projects a corpus row, and its Row when it has one,
// onto its JSONL schema. A sequential record reports pis, pos and both
// criticals as 0 and omits met_timing.
func NewCorpusRecord(r *flow.CorpusRow) CorpusRecord {
	rec := CorpusRecord{
		Index:       r.Index,
		Name:        r.Name,
		Path:        r.Path,
		Format:      r.Format,
		Sequential:  r.Sequential,
		Error:       r.Err,
		TimedOut:    r.TimedOut,
		Engine:      r.Engine,
		BudgetTrips: r.BudgetTrips,
		WallSec:     r.WallSec,
	}
	if row := r.Row; row != nil {
		rec.PIs, rec.POs = row.PIs, row.POs
		rec.FFs, rec.Cut, rec.PseudoInputs = row.FFs, row.Cut, row.PseudoInputs
		rec.MASize, rec.MAPower = row.MA.Size, row.MA.SimPower
		rec.MPSize, rec.MPPower = row.MP.Size, row.MP.SimPower
		rec.AreaPenaltyPct, rec.PowerSavingPct = row.AreaPenaltyPct, row.PowerSavingPct
		if !r.Sequential {
			rec.MACritical, rec.MPCritical = row.MA.Critical, row.MP.Critical
			met := row.MP.MetTiming
			rec.MetTiming = &met
		}
	}
	return rec
}

// WriteCorpusJSONL appends one row's record to w as a single JSON line.
// Feeding it from flow.CorpusConfig.OnRow streams the batch in index
// order while it runs.
func WriteCorpusJSONL(w io.Writer, r *flow.CorpusRow) error {
	line, err := json.Marshal(NewCorpusRecord(r))
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = w.Write(line)
	return err
}
