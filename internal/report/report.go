// Package report renders flow results in the layout of the paper's
// tables, with the paper's own numbers alongside for comparison.
package report

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/flow"
)

// Table renders rows in the paper's column layout. title is printed as a
// caption; the average line mirrors the paper's.
func Table(title string, rows []*flow.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %-14s %5s %5s | %6s %9s | %6s %9s | %10s %10s | %10s %10s\n",
		"Ckt", "Desc.", "#PIs", "#POs", "MA sz", "MA pwr", "MP sz", "MP pwr",
		"%AreaPen", "%PwrSav", "paper%AP", "paper%PS")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 132))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-14s %5d %5d | %6d %9.2f | %6d %9.2f | %10.1f %10.1f | %10.1f %10.1f\n",
			r.Name, r.Desc, r.PIs, r.POs,
			r.MA.Size, r.MA.SimPower,
			r.MP.Size, r.MP.SimPower,
			r.AreaPenaltyPct, r.PowerSavingPct,
			r.PaperAreaPenaltyPct, r.PaperPowerSavingPct)
	}
	areaPen, pwrSav := flow.Averages(rows)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 132))
	fmt.Fprintf(&b, "%-12s %-14s %5s %5s | %6s %9s | %6s %9s | %10.1f %10.1f |\n",
		"Average", "", "", "", "", "", "", "", areaPen, pwrSav)
	return b.String()
}

// CSV renders rows as comma-separated values with a header, for
// downstream plotting. Fields go through encoding/csv, so a name holding
// a comma or a quote is quoted; plain fields are written bare.
func CSV(rows []*flow.Row) string {
	f := func(x float64, prec int) string { return strconv.FormatFloat(x, 'f', prec, 64) }
	records := [][]string{strings.Split("name,desc,pis,pos,ma_size,ma_power,mp_size,mp_power,area_penalty_pct,power_saving_pct,paper_area_penalty_pct,paper_power_saving_pct,ma_critical,mp_critical,mp_met_timing", ",")}
	for _, r := range rows {
		records = append(records, []string{
			r.Name, r.Desc, strconv.Itoa(r.PIs), strconv.Itoa(r.POs),
			strconv.Itoa(r.MA.Size), f(r.MA.SimPower, 4), strconv.Itoa(r.MP.Size), f(r.MP.SimPower, 4),
			f(r.AreaPenaltyPct, 2), f(r.PowerSavingPct, 2),
			f(r.PaperAreaPenaltyPct, 2), f(r.PaperPowerSavingPct, 2),
			f(r.MA.Critical, 3), f(r.MP.Critical, 3), strconv.FormatBool(r.MP.MetTiming),
		})
	}
	var b strings.Builder
	csv.NewWriter(&b).WriteAll(records) // a strings.Builder never fails a write
	return b.String()
}

// Curve renders (p, S) samples as a two-column table, used for the
// Figure 2 reproduction.
func Curve(title string, ps, ss []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%8s %10s\n", title, "p", "S")
	for i := range ps {
		fmt.Fprintf(&b, "%8.3f %10.4f\n", ps[i], ss[i])
	}
	return b.String()
}
