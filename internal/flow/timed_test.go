package flow

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blif"
	"repro/internal/budget"
	"repro/internal/corpus"
	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/prob"
	"repro/internal/timing"
)

// timedPin is what resizing decides for one synthesis of a timed row:
// its sized area, the bits of its post-resize critical delay, its
// committed resize steps and whether it met the clock target.
type timedPin struct {
	size     int
	critical uint64
	steps    int
	met      bool
}

func pinOf(s *Synthesis) timedPin {
	return timedPin{s.Size, math.Float64bits(s.Critical), s.ResizeSteps, s.MetTiming}
}

// TestTimedResizingPinned pins the resizing decisions of the four Table
// 2 twins, MA and MP, under the default config and under Slack 1.1. At
// the default 1.25 apex7 and x1 never resize; at 1.1 every synthesis
// but apex7's MA resizes, and frg1's MP takes Resize's "cannot meet
// target" path (113 steps, MetTiming false). The root table pins check
// neither timing value.
func TestTimedResizingPinned(t *testing.T) {
	for _, tc := range []struct {
		c      gen.NamedCircuit
		slack  float64
		ma, mp timedPin
	}{
		{gen.Apex7(), 1.25, timedPin{1124, 0x40440ccccccccccc, 0, true}, timedPin{1275, 0x4045cccccccccccb, 0, true}},
		{gen.Apex7(), 1.1, timedPin{1124, 0x40440ccccccccccc, 0, true}, timedPin{1276, 0x4045632632632631, 1, true}},
		{gen.Frg1(), 1.25, timedPin{283, 0x40400ccccccccccd, 0, true}, timedPin{326, 0x40402551c39a6a32, 29, true}},
		{gen.Frg1(), 1.1, timedPin{326, 0x403c776965bd6eca, 32, true}, timedPin{536, 0x403d37711e789874, 113, false}},
		{gen.X1(), 1.25, timedPin{757, 0x4041f33333333333, 0, true}, timedPin{770, 0x40416ccccccccccc, 0, true}},
		{gen.X1(), 1.1, timedPin{784, 0x404053d74860b9ee, 22, true}, timedPin{792, 0x40404f108da8670e, 18, true}},
		{gen.X3(), 1.25, timedPin{3563, 0x404c8e15ed063469, 31, true}, timedPin{3685, 0x404c8d7f0322fcc3, 41, true}},
		{gen.X3(), 1.1, timedPin{3773, 0x404926867b82d416, 162, true}, timedPin{3916, 0x40492e2bfb40fc7c, 183, true}},
	} {
		row, err := RunCircuitTimed(tc.c, Config{Slack: tc.slack})
		if err != nil {
			t.Fatalf("%s slack %v: %v", tc.c.Name, tc.slack, err)
		}
		for _, s := range []struct {
			name      string
			got, want timedPin
		}{{"MA", pinOf(&row.MA), tc.ma}, {"MP", pinOf(&row.MP), tc.mp}} {
			if s.got != s.want {
				t.Errorf("%s slack %v %s: {size %d critical %#x (%v) steps %d met %v}, want {%d %#x (%v) %d %v}",
					tc.c.Name, tc.slack, s.name, s.got.size, s.got.critical, math.Float64frombits(s.got.critical), s.got.steps, s.got.met,
					s.want.size, s.want.critical, math.Float64frombits(s.want.critical), s.want.steps, s.want.met)
			}
		}
	}
}

// maProbe maps the MA result of a twin under cfg: the block the timed
// flow tightens to derive its clock target.
func maProbe(tb testing.TB, c gen.NamedCircuit, cfg Config) *domino.Block {
	tb.Helper()
	return mapProbe(tb, maResult(tb, c, cfg), cfg)
}

func maResult(tb testing.TB, c gen.NamedCircuit, cfg Config) *phase.Result {
	tb.Helper()
	cfg.defaults()
	_, res, err := synthesizeMAAssignment(Prepare(c.Net), cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func mapProbe(tb testing.TB, res *phase.Result, cfg Config) *domino.Block {
	tb.Helper()
	cfg.defaults()
	b, err := domino.Map(res, *cfg.Lib)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestTimedProbePinned pins each Table 2 twin's MA probe under the
// default config: Tighten's step count and the bits of the critical
// delay it reaches, from which the clock target is derived.
func TestTimedProbePinned(t *testing.T) {
	for _, tc := range []struct {
		c        gen.NamedCircuit
		steps    int
		critical uint64
	}{
		{gen.Apex7(), 3, 0x4043866666666666},
		{gen.Frg1(), 104, 0x4039e1bab7db4564},
		{gen.X1(), 97, 0x403db78ae607854e},
		{gen.X3(), 390, 0x4046e4304b6e1596},
	} {
		cfg := Config{}
		cfg.defaults()
		best, steps := timing.Tighten(maProbe(t, tc.c, cfg), *cfg.Timing)
		if bits := math.Float64bits(best.Critical); steps != tc.steps || bits != tc.critical {
			t.Errorf("%s: Tighten took %d steps to critical %v (bits %#x), want %d steps to bits %#x (%v)",
				tc.c.Name, steps, best.Critical, bits, tc.steps, tc.critical, math.Float64frombits(tc.critical))
		}
	}
}

// TestTimedRowHonoursTimeout: Tighten and Resize poll the row's token
// before every trial upsizing, so a per-circuit timeout ends a timed row
// promptly even under a delay model (SizeStep 1.01, MaxSize 1e6) whose
// x3 probe alone takes 18,814 Tighten steps.
func TestTimedRowHonoursTimeout(t *testing.T) {
	src, err := blif.WriteString(&blif.Model{Network: gen.X3().Net})
	if err != nil {
		t.Fatal(err)
	}
	p := timing.DefaultParams()
	p.SizeStep, p.MaxSize = 1.01, 1e6
	start := time.Now()
	rows, err := RunCorpus(context.Background(), []corpus.Entry{{Path: "x3.blif", Name: "x3", Format: corpus.FormatBLIF, Data: []byte(src)}},
		CorpusConfig{Base: Config{Timing: &p, Workers: 1}, Timed: true, Workers: 1, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); !rows[0].TimedOut || wall > 2*time.Second {
		t.Errorf("TimedOut=%v after %v (err %q), want a timeout row within 2s", rows[0].TimedOut, wall, rows[0].Err)
	}
}

// TestCancelledResizeIsAnError: a resize cut short by cancellation ends
// the synthesis with the token's error; it never reads as a synthesis
// that missed its clock target (MetTiming false).
func TestCancelledResizeIsAnError(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	net := Prepare(gen.Frg1().Net)
	asg, res, err := synthesizeMAAssignment(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tok := cfg.token()
	tok.Cancel(nil)
	s, err := synthesize(asg, res, prob.Uniform(net, cfg.InputProb), cfg, tok, true, 1, nil)
	if !errors.Is(err, budget.ErrCancelled) || !strings.HasPrefix(err.Error(), "flow: Resize: ") {
		t.Errorf("cancelled resize: synthesis %+v, err %v; want a flow: Resize: cancellation error", s, err)
	}
}

// BenchmarkTighten tightens x3's MA probe under the default delay model:
// the largest Tighten of a Table 2 pass (390 steps). Each iteration maps
// a fresh probe outside the timer.
func BenchmarkTighten(b *testing.B) {
	cfg := Config{}
	cfg.defaults()
	res := maResult(b, gen.X3(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		probe := mapProbe(b, res, cfg)
		b.StartTimer()
		timing.Tighten(probe, *cfg.Timing)
	}
}
