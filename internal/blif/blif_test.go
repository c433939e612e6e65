package blif

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/verify"
)

const smallBLIF = `
# a tiny combinational model
.model small
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a b g # XOR as on-set cover
01 1
10 1
.end
`

func TestParseSmall(t *testing.T) {
	m, err := ParseString(smallBLIF)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	n := m.Network
	if n.Name != "small" {
		t.Errorf("model name = %q", n.Name)
	}
	if n.NumInputs() != 3 || n.NumOutputs() != 2 {
		t.Fatalf("interface = %d in, %d out; want 3, 2", n.NumInputs(), n.NumOutputs())
	}
	// f = (a·b) + c, g = a⊕b.
	cases := []struct {
		in   [3]bool
		f, g bool
	}{
		{[3]bool{false, false, false}, false, false},
		{[3]bool{true, true, false}, true, false},
		{[3]bool{false, false, true}, true, false},
		{[3]bool{true, false, false}, false, true},
		{[3]bool{false, true, true}, true, true},
	}
	for _, c := range cases {
		outs := n.EvalOutputs(c.in[:])
		if outs[0] != c.f || outs[1] != c.g {
			t.Errorf("eval(%v) = f:%v g:%v, want f:%v g:%v", c.in, outs[0], outs[1], c.f, c.g)
		}
	}
}

func TestParseOffsetCover(t *testing.T) {
	m, err := ParseString(`
.model off
.inputs a b
.outputs f
.names a b f
11 0
.end
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	// f is the complement of a·b (NAND).
	n := m.Network
	cases := []struct {
		a, b, f bool
	}{
		{false, false, true}, {true, false, true}, {false, true, true}, {true, true, false},
	}
	for _, c := range cases {
		if got := n.EvalOutputs([]bool{c.a, c.b})[0]; got != c.f {
			t.Errorf("NAND(%v,%v) = %v, want %v", c.a, c.b, got, c.f)
		}
	}
}

func TestParseConstants(t *testing.T) {
	m, err := ParseString(`
.model consts
.inputs a
.outputs one zero buf
.names one
1
.names zero
.names a buf
1 1
.end
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	outs := m.Network.EvalOutputs([]bool{false})
	if outs[0] != true || outs[1] != false || outs[2] != false {
		t.Errorf("constants wrong: %v", outs)
	}
	outs = m.Network.EvalOutputs([]bool{true})
	if outs[2] != true {
		t.Errorf("buffer wrong: %v", outs)
	}
}

func TestParseLatch(t *testing.T) {
	m, err := ParseString(`
.model seq
.inputs x
.outputs y
.latch ns q 1
.names x q ns
11 1
.names q y
1 1
.end
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(m.Latches) != 1 {
		t.Fatalf("latches = %d, want 1", len(m.Latches))
	}
	l := m.Latches[0]
	if l.Input != "ns" || l.Output != "q" || l.Init != 1 {
		t.Errorf("latch = %+v", l)
	}
	// q is a pseudo-input, ns a pseudo-output.
	if m.Network.InputByName("q") == logic.InvalidNode {
		t.Error("latch output q not a pseudo-input")
	}
	if m.Network.OutputByName("ns") < 0 {
		t.Error("latch input ns not a pseudo-output")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no model", ".inputs a\n.end"},
		{"undriven", ".model m\n.inputs a\n.outputs f\n.end"},
		{"mixed cover", ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end"},
		{"bad width", ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end"},
		{"cycle", ".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end"},
		{"double def", ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end"},
		{"bad directive", ".model m\n.banana\n.end"},
		{"row outside names", ".model m\n.inputs a\n11 1\n.end"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

func TestLineContinuation(t *testing.T) {
	m, err := ParseString(".model m\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if m.Network.NumInputs() != 2 {
		t.Errorf("continuation lost an input: %d", m.Network.NumInputs())
	}
}

func TestTrailingContinuationAtEOF(t *testing.T) {
	// A '\' continuation on the file's last line used to be dropped
	// wholesale (pending was never flushed after the scan loop), so the
	// continued directive silently vanished from the model.
	m, err := ParseString(".model m\n.inputs a b\n.names a b f\n11 1\n.outputs f \\")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if m.Network.NumOutputs() != 1 {
		t.Fatalf("continued .outputs at EOF lost: %d outputs, want 1", m.Network.NumOutputs())
	}
	if m.Network.OutputByName("f") < 0 {
		t.Error("output f missing")
	}

	// A continued cover row at EOF flushes to a malformed row ("11" with
	// two declared inputs) and must error rather than parse to a
	// constant-0 cover.
	if _, err := ParseString(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 \\"); err == nil {
		t.Error("truncated continued cover row at EOF accepted")
	}
}

func TestExdcSectionSkipped(t *testing.T) {
	// .exdc used to reset only `current`, merging the don't-care
	// section's .names covers into the main model — here faking a
	// "signal f defined twice" error.
	m, err := ParseString(`
.model m
.inputs a b
.outputs f
.names a b f
11 1
.exdc
.names a f
1 1
.end
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	// f must be the main model's a·b, not the don't-care cover's a.
	cases := []struct {
		a, b, f bool
	}{
		{false, false, false}, {true, false, false}, {false, true, false}, {true, true, true},
	}
	for _, c := range cases {
		if got := m.Network.EvalOutputs([]bool{c.a, c.b})[0]; got != c.f {
			t.Errorf("f(%v,%v) = %v, want %v (exdc cover leaked into model)", c.a, c.b, got, c.f)
		}
	}
}

func TestExdcCoverDoesNotCorruptModel(t *testing.T) {
	// An .exdc section that redefines an internal signal must not
	// replace the main model's cover for it.
	m, err := ParseString(`
.model m
.inputs a b
.outputs f
.names a b t
11 1
.names t f
1 1
.exdc
.names a b t
-- 1
.end
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if got := m.Network.EvalOutputs([]bool{false, false})[0]; got {
		t.Error("f(0,0) = true: .exdc tautology cover replaced the model's t")
	}
}

func TestRoundTrip(t *testing.T) {
	m, err := ParseString(smallBLIF)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text, err := WriteString(m)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	m2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if err := verify.Check(m.Network, m2.Network); err != nil {
		t.Fatalf("round trip changed function (%v):\n%s", err, text)
	}
}

func TestRoundTripGateKinds(t *testing.T) {
	n := logic.New("kinds")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.MarkOutput("and3", n.AddAnd(a, b, c))
	n.MarkOutput("or3", n.AddOr(a, b, c))
	n.MarkOutput("xor3", n.AddXor(a, b, c))
	n.MarkOutput("inv", n.AddNot(a))
	n.MarkOutput("buf", n.AddBuf(b))
	n.MarkOutput("k1", n.AddConst(true))
	n.MarkOutput("k0", n.AddConst(false))
	m := &Model{Network: n}
	text, err := WriteString(m)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	m2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if err := verify.Check(n, m2.Network); err != nil {
		t.Fatalf("round trip changed function (%v):\n%s", err, text)
	}
}

func TestRoundTripLatches(t *testing.T) {
	src := ".model seq\n.inputs x\n.outputs y\n.latch ns q 1\n.names x q ns\n11 1\n.names q y\n1 1\n.end\n"
	m, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text, err := WriteString(m)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(text, ".latch ns q 1") {
		t.Errorf("latch lost in round trip:\n%s", text)
	}
	m2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if len(m2.Latches) != 1 {
		t.Errorf("latches = %d after round trip", len(m2.Latches))
	}
}

func TestWriteWideXorFails(t *testing.T) {
	n := logic.New("widexor")
	var ins []logic.NodeID
	for i := 0; i < 17; i++ {
		ins = append(ins, n.AddInput("x"+string(rune('a'+i))))
	}
	n.MarkOutput("f", n.AddXor(ins...))
	var b strings.Builder
	if err := Write(&b, &Model{Network: n}); err == nil {
		t.Error("Write accepted a 17-input XOR (2^17 cover rows)")
	}
}

func TestParseCommentOnlyAndBlankLines(t *testing.T) {
	m, err := ParseString("# header\n\n.model m\n# mid\n.inputs a\n.outputs f\n.names a f\n1 1\n\n.end\n# trailing\n")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if m.Network.NumInputs() != 1 {
		t.Error("comments broke parsing")
	}
}
