package pla

import (
	"strings"
	"testing"

	"repro/internal/verify"
)

const sample = `
# 2-bit adder sum bits, espresso style
.i 3
.o 2
.ilb a b cin
.ob sum carry
.p 5
11- -1
1-1 -1
-11 -1
10- 1-   # not a real adder row; exercise mixed planes
001 1-
.e
`

func TestParseSample(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if p.NumInputs != 3 || p.NumOutputs != 2 {
		t.Fatalf("interface %d/%d", p.NumInputs, p.NumOutputs)
	}
	if len(p.Rows) != 5 {
		t.Fatalf("rows = %d", len(p.Rows))
	}
	if p.InputLabels[2] != "cin" || p.OutputLabels[1] != "carry" {
		t.Errorf("labels wrong: %v %v", p.InputLabels, p.OutputLabels)
	}
	carry := p.Cover(1)
	if len(carry.Cubes) != 3 {
		t.Errorf("carry cubes = %d, want 3", len(carry.Cubes))
	}
}

func TestToNetworkSemantics(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.ToNetwork()
	if err != nil {
		t.Fatalf("ToNetwork: %v", err)
	}
	// carry = ab + a·cin + b·cin (majority).
	cases := []struct {
		in    [3]bool
		carry bool
	}{
		{[3]bool{false, false, false}, false},
		{[3]bool{true, true, false}, true},
		{[3]bool{true, false, true}, true},
		{[3]bool{false, true, true}, true},
		{[3]bool{true, false, false}, false},
	}
	for _, c := range cases {
		if got := n.EvalOutputs(c.in[:])[1]; got != c.carry {
			t.Errorf("carry(%v) = %v, want %v", c.in, got, c.carry)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no io", "11 1\n.e"},
		{"bad width", ".i 2\n.o 1\n111 1\n.e"},
		{"bad char", ".i 2\n.o 1\nxx 1\n.e"},
		{"bad out width", ".i 2\n.o 2\n11 1\n.e"},
		{"bad directive", ".i 2\n.o 1\n.banana\n.e"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	n1, err := p.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := p2.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(n1, n2); err != nil {
		t.Fatalf("round trip changed function (%v):\n%s", err, text)
	}
}

func TestDefaultLabels(t *testing.T) {
	p, err := ParseString(".i 2\n.o 1\n11 1\n.e")
	if err != nil {
		t.Fatal(err)
	}
	if p.InputLabels[0] != "in0" || p.OutputLabels[0] != "out0" {
		t.Errorf("default labels: %v %v", p.InputLabels, p.OutputLabels)
	}
}

func TestMalformedIODirectives(t *testing.T) {
	// fmt.Sscanf errors on .i/.o used to be ignored, leaving
	// NumInputs/NumOutputs at 0 and surfacing later as a misleading
	// "cube before .i/.o" (or "missing .i/.o") at the wrong line.
	cases := []struct {
		name, src, wantAt string
	}{
		{"non-numeric .i", ".i abc\n.o 1\n1 1\n.e", "line 1"},
		{"non-numeric .o", ".i 1\n.o xyz\n1 1\n.e", "line 2"},
		{"trailing garbage .i", ".i 2x\n.o 1\n11 1\n.e", "line 1"},
		{"zero .i", ".i 0\n.o 1\n 1\n.e", "line 1"},
		{"negative .o", ".i 1\n.o -3\n1 1\n.e", "line 2"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil {
			t.Errorf("%s: expected error, got none", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantAt) {
			t.Errorf("%s: error %q does not point at %s", c.name, err, c.wantAt)
		}
	}
}
