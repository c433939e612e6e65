package pla

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/verify"
)

// TestParseRejectsExtraLabels is a fuzz regression: more .ilb (or .ob)
// labels than .i (or .o) declares were accepted, and ToNetwork then
// indexed past its input slice.
func TestParseRejectsExtraLabels(t *testing.T) {
	for _, src := range []string{
		".i 1\n.o 1\n.ilb 000 0",
		".i 1\n.o 1\n.ob f g\n1 1\n.e",
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%q: accepted more labels than the plane has", src)
		}
	}
}

// TestParseRejectsDuplicateLabels is a fuzz regression: a repeated
// .ilb or .ob label panicked in logic's AddInput/MarkOutput during
// ToNetwork. A default label colliding with a given one is the same
// defect.
func TestParseRejectsDuplicateLabels(t *testing.T) {
	for _, src := range []string{
		".i 2\n.o 1\n.ilb 1 1",
		".i 1\n.o 2\n.ob f f\n1 11\n.e",
		".i 2\n.o 1\n.ilb in1\n11 1\n.e",
	} {
		_, err := ParseString(src)
		if err == nil || !strings.Contains(err.Error(), "duplicate label") {
			t.Errorf("%q: err = %v, want a duplicate-label error", src, err)
		}
	}
}

// TestParseBoundsPlaneWidth is a fuzz regression: a 20-byte input
// declaring .o 10000000000 made defaultLabels append 10^10 labels and
// killed the process with an out-of-memory fatal error, which no
// recover can catch.
func TestParseBoundsPlaneWidth(t *testing.T) {
	for _, src := range []string{
		".i 3\n.o 10000000000",
		fmt.Sprintf(".i %d\n.o 1\n.e", maxPlaneWidth+1),
	} {
		_, err := ParseString(src)
		if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("%q: err = %v, want a width-limit error", src, err)
		}
	}
	p, err := ParseString(fmt.Sprintf(".i %d\n.o 1\n.e", maxPlaneWidth))
	if err != nil || len(p.InputLabels) != maxPlaneWidth {
		t.Errorf(".i at the limit: err = %v", err)
	}
}

// TestParseRejectsIOAfterCube is a fuzz regression: .i or .o after the
// first cube changed the declared width under rows already read, so
// the accepted PLA's written form no longer parsed.
func TestParseRejectsIOAfterCube(t *testing.T) {
	for _, src := range []string{
		".i 2\n.o 1\n00 0\n.i 1",
		".i 2\n.o 1\n00 0\n.o 2",
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%q: accepted a width change after a cube", src)
		}
	}
}

// FuzzParse drives the parser with untrusted bytes, as dominod's upload
// path does. Neither Parse nor ToNetwork on what Parse accepts may
// panic, and an accepted PLA must re-parse after Write to the same
// planes and labels; PLAs small enough for an exhaustive check must
// also keep their function.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		sample,
		".i 2\n.o 1\n11 1\n.e",
		".i 3\n.o 2\n.type fr\n1-0 1~\n0-1 24\n.e",
		".i 1\n.o 1\n.ilb 000 0",
		".i 2\n.o 1\n.ilb 1 1",
		".i 1\n.o 2\n.ob f f\n1 11\n.e",
		".i 3\n.o 10000000000",
		".i 2\n.o 1\n00 0\n.i 1",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseString(src)
		if err != nil {
			return
		}
		n, err := p.ToNetwork()
		if err != nil {
			t.Fatalf("ToNetwork of an accepted PLA: %v", err)
		}
		text, err := WriteString(p)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ParseString(text)
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, text)
		}
		if p2.NumInputs != p.NumInputs || p2.NumOutputs != p.NumOutputs || len(p2.Rows) != len(p.Rows) ||
			!reflect.DeepEqual(p2.InputLabels, p.InputLabels) || !reflect.DeepEqual(p2.OutputLabels, p.OutputLabels) {
			t.Fatalf("round trip changed the PLA:\n%s", text)
		}
		if p.NumInputs <= 10 {
			n2, err := p2.ToNetwork()
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Check(n, n2); err != nil {
				t.Fatalf("round trip changed the function (%v):\n%s", err, text)
			}
		}
	})
}
