package blif

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/logic"
)

// TestParseWhitespaceOnlyContinuation is a fuzz regression: a '\'
// continuation that joins to whitespace only reached the directive
// switch with no fields and indexed fields[0] out of range.
func TestParseWhitespaceOnlyContinuation(t *testing.T) {
	if _, err := ParseString(" \\\n "); err == nil {
		t.Error("model-less input accepted")
	}
	m, err := ParseString(".model m\n.inputs a\n.outputs f\n \\\n\n.names a f\n1 1\n.end\n")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if m.Network.NumInputs() != 1 || m.Network.NumOutputs() != 1 {
		t.Errorf("interface %d/%d, want 1/1", m.Network.NumInputs(), m.Network.NumOutputs())
	}
}

// TestParseDuplicateOutputIsError is a fuzz regression: a name listed
// twice in .outputs panicked in logic.MarkOutput instead of failing
// the parse.
func TestParseDuplicateOutputIsError(t *testing.T) {
	_, err := ParseString(".model\n.outputs g g\n.names g")
	if err == nil || !strings.Contains(err.Error(), "duplicate output") {
		t.Errorf("err = %v, want a duplicate-output error", err)
	}
}

// TestParseRejectsBackslashTokens is a fuzz regression: a name ending
// in '\' mid-line parsed, but Write could put it at the end of a line,
// where the re-parse read it as a continuation.
func TestParseRejectsBackslashTokens(t *testing.T) {
	if _, err := ParseString(".model m\n.inputs a\\ b\n.outputs b\n.end\n"); err == nil {
		t.Error("input name ending in a backslash accepted")
	}
}

// TestWriteSyntheticNamesAvoidCollisions is a fuzz regression: Write
// named unnamed nodes n<id> even when a signal already had that name,
// so the written model defined the signal twice.
func TestWriteSyntheticNamesAvoidCollisions(t *testing.T) {
	roundTrip(t, ".model m\n.inputs a b\n.outputs n3\n.names a b n3\n0- 1\n-0 1\n.end\n")
}

// TestWriteKeepsLatchInputOutputOrder is a fuzz regression: Write left
// a declared output out of .outputs because it was also a latch input,
// and the re-parse appended it after the other outputs.
func TestWriteKeepsLatchInputOutputOrder(t *testing.T) {
	roundTrip(t, ".model m\n.inputs a\n.outputs n f\n.latch n q 0\n.names a n\n1 1\n.names q f\n1 1\n.end\n")
}

// modelInterface is what a BLIF round trip must preserve by name and
// order: the primary inputs, the primary outputs and the latches.
type modelInterface struct {
	Inputs, Outputs []string
	Latches         []Latch
}

func interfaceOf(m *Model) modelInterface {
	n := m.Network
	mi := modelInterface{Latches: m.Latches}
	for _, id := range n.Inputs() {
		mi.Inputs = append(mi.Inputs, n.Node(id).Name)
	}
	for _, o := range n.Outputs() {
		mi.Outputs = append(mi.Outputs, o.Name)
	}
	return mi
}

// roundTrip writes the model src parses to and re-parses it: the
// interface must survive by name and order, and models small enough
// for an exhaustive check must keep their function.
func roundTrip(t *testing.T, src string) {
	t.Helper()
	m, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	text, err := WriteString(m)
	if err != nil {
		t.Fatalf("write of an accepted model: %v", err)
	}
	m2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if got, want := interfaceOf(m2), interfaceOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the interface:\n got %+v\nwant %+v\n%s", got, want, text)
	}
	if m.Network.NumInputs() <= 10 {
		if eq, err := logic.Equivalent(m.Network, m2.Network); err != nil || !eq {
			t.Fatalf("round trip changed the function (%v, %v):\n%s", eq, err, text)
		}
	}
}

// FuzzParse drives the parser with untrusted bytes, as dominod's upload
// path does. Parse must never panic, and a model it accepts must pass
// roundTrip.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		smallBLIF,
		".model seq\n.inputs x\n.outputs y\n.latch ns q 1\n.names x q ns\n11 1\n.names q y\n1 1\n.end\n",
		".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.exdc\n.names a f\n1 1\n.end\n",
		".model m\n.inputs a \\\nb\n.outputs f g\n.names a b f\n0- 1\n-0 1\n.names g\n1\n.end\n",
		".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n",
		" \\\n ",
		".model\n.outputs g g\n.names g",
		".model m\n.inputs a\\ b\n.outputs b\n.end\n",
		".model m\n.inputs a b\n.outputs n3\n.names a b n3\n0- 1\n-0 1\n.end\n",
		".model m\n.inputs a\n.outputs n f\n.latch n q 0\n.names a n\n1 1\n.names q f\n1 1\n.end\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseString(src); err == nil {
			roundTrip(t, src)
		}
	})
}
