package report

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/flow"
)

func sampleRows() []*flow.Row {
	return []*flow.Row{
		{
			Name: "frg1", Desc: "Public Domain", PIs: 31, POs: 3,
			MA:             flow.Synthesis{Size: 69, SimPower: 84.59},
			MP:             flow.Synthesis{Size: 73, SimPower: 54.03},
			AreaPenaltyPct: 5.8, PowerSavingPct: 36.1,
			PaperAreaPenaltyPct: 48.0, PaperPowerSavingPct: 34.1,
		},
		{
			Name: "x1", Desc: "Public Domain", PIs: 87, POs: 28,
			MA:             flow.Synthesis{Size: 203, SimPower: 174.26},
			MP:             flow.Synthesis{Size: 212, SimPower: 160.74},
			AreaPenaltyPct: 4.4, PowerSavingPct: 7.8,
			PaperAreaPenaltyPct: 4.2, PaperPowerSavingPct: 8.9,
		},
	}
}

func TestTableContainsRowsAndAverage(t *testing.T) {
	out := Table("Table 1", sampleRows())
	for _, want := range []string{"Table 1", "frg1", "x1", "Average", "36.1", "48.0", "84.59"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// Average of 36.1 and 7.8 is 21.95, which rounds down in binary
	// floating point.
	if !strings.Contains(out, "21.9") {
		t.Errorf("average power saving not rendered:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	rows := sampleRows()
	for _, name := range []string{"a,b", `q"x`} {
		r := *rows[0]
		r.Name = name
		rows = append(rows, &r)
	}
	out := CSV(rows)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "name,desc,") {
		t.Errorf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "frg1,Public Domain,31,3,69,84.5900,") {
		t.Errorf("bad row: %s", lines[1])
	}
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not parse: %v\n%s", err, out)
	}
	if len(records) != 1+len(rows) {
		t.Fatalf("CSV records = %d, want header + %d rows", len(records), len(rows))
	}
	for i, r := range rows {
		if got := records[1+i][0]; got != r.Name {
			t.Errorf("row %d name = %q, want %q", i, got, r.Name)
		}
	}
}

func TestCurve(t *testing.T) {
	out := Curve("demo", []float64{0, 0.5, 1}, []float64{0, 0.5, 0})
	if !strings.Contains(out, "demo") || !strings.Contains(out, "0.500") {
		t.Errorf("curve output wrong:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 5 {
		t.Errorf("curve lines = %d, want 5 (title + header + 3 samples)", got)
	}
}
