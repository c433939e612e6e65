// Package pla reads and writes the Berkeley PLA format used by espresso
// and the MCNC two-level benchmark suite. A PLA is a multi-output cube
// cover; this package converts between PLA files and per-output
// sop.Cover values, and elaborates them into logic networks.
//
// Supported directives: .i .o .p .ilb .ob .type fr/f (off-set rows of
// type fr are accepted and checked for consistency), .e/.end, '#'
// comments. Output plane characters: 1 (on), 0/~ (off/don't care for the
// output), - (don't care).
package pla

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/sop"
)

// maxPlaneWidth bounds .i and .o. The labels and cubes Parse allocates
// grow with both, so an unbounded count would let a few bytes of input
// exhaust memory; the largest benchmark twin (x4) has 288 inputs.
const maxPlaneWidth = 1 << 16

// PLA is a parsed multi-output cover.
type PLA struct {
	Name         string
	NumInputs    int
	NumOutputs   int
	InputLabels  []string
	OutputLabels []string
	// Rows holds the input cubes; OutputPlane[r][o] is the output-plane
	// character for row r, output o ('1', '0', '-', '~').
	Rows        []sop.Cube
	OutputPlane [][]byte
}

// Parse reads a PLA from r.
func Parse(r io.Reader) (*PLA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	p := &PLA{Name: "pla"}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".i", ".o":
			if len(p.Rows) > 0 {
				return nil, fmt.Errorf("pla: line %d: %s after the first cube", lineNo, fields[0])
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("pla: line %d: malformed %s", lineNo, fields[0])
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("pla: line %d: malformed %s %q", lineNo, fields[0], fields[1])
			}
			if n > maxPlaneWidth {
				return nil, fmt.Errorf("pla: line %d: %s %d exceeds the limit of %d", lineNo, fields[0], n, maxPlaneWidth)
			}
			if fields[0] == ".i" {
				p.NumInputs = n
			} else {
				p.NumOutputs = n
			}
		case ".p":
			// Row-count hint; ignored (rows are counted as read).
		case ".ilb":
			p.InputLabels = append([]string(nil), fields[1:]...)
		case ".ob":
			p.OutputLabels = append([]string(nil), fields[1:]...)
		case ".type":
			// fr and f are both treated as on-set semantics for '1'.
		case ".e", ".end":
			goto done
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, fmt.Errorf("pla: line %d: unsupported directive %s", lineNo, fields[0])
			}
			if p.NumInputs == 0 || p.NumOutputs == 0 {
				return nil, fmt.Errorf("pla: line %d: cube before .i/.o", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("pla: line %d: want input and output planes", lineNo)
			}
			in, out := fields[0], fields[1]
			if len(in) != p.NumInputs {
				return nil, fmt.Errorf("pla: line %d: input plane width %d, want %d", lineNo, len(in), p.NumInputs)
			}
			if len(out) != p.NumOutputs {
				return nil, fmt.Errorf("pla: line %d: output plane width %d, want %d", lineNo, len(out), p.NumOutputs)
			}
			cube := sop.NewCube(p.NumInputs)
			for v, ch := range []byte(in) {
				switch ch {
				case '1':
					cube = cube.WithLiteral(v, sop.Pos)
				case '0':
					cube = cube.WithLiteral(v, sop.Neg)
				case '-', '2':
				default:
					return nil, fmt.Errorf("pla: line %d: bad input char %q", lineNo, ch)
				}
			}
			for _, ch := range []byte(out) {
				switch ch {
				case '0', '1', '-', '~', '2', '4':
				default:
					return nil, fmt.Errorf("pla: line %d: bad output char %q", lineNo, ch)
				}
			}
			p.Rows = append(p.Rows, cube)
			p.OutputPlane = append(p.OutputPlane, []byte(out))
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pla: %w", err)
	}
	if p.NumInputs == 0 || p.NumOutputs == 0 {
		return nil, fmt.Errorf("pla: missing .i/.o")
	}
	if len(p.InputLabels) > p.NumInputs || len(p.OutputLabels) > p.NumOutputs {
		return nil, fmt.Errorf("pla: %d .ilb and %d .ob labels for .i %d and .o %d",
			len(p.InputLabels), len(p.OutputLabels), p.NumInputs, p.NumOutputs)
	}
	p.defaultLabels()
	for _, labels := range [][]string{p.InputLabels, p.OutputLabels} {
		seen := make(map[string]bool, len(labels))
		for _, l := range labels {
			if seen[l] {
				return nil, fmt.Errorf("pla: duplicate label %q", l)
			}
			seen[l] = true
		}
	}
	return p, nil
}

// ParseString parses a PLA held in a string.
func ParseString(s string) (*PLA, error) { return Parse(strings.NewReader(s)) }

func (p *PLA) defaultLabels() {
	for len(p.InputLabels) < p.NumInputs {
		p.InputLabels = append(p.InputLabels, fmt.Sprintf("in%d", len(p.InputLabels)))
	}
	for len(p.OutputLabels) < p.NumOutputs {
		p.OutputLabels = append(p.OutputLabels, fmt.Sprintf("out%d", len(p.OutputLabels)))
	}
}

// Cover extracts the on-set cover of output o.
func (p *PLA) Cover(o int) *sop.Cover {
	c := sop.NewCover(p.NumInputs)
	for r, cube := range p.Rows {
		if p.OutputPlane[r][o] == '1' || p.OutputPlane[r][o] == '4' {
			c.Add(cube.Clone())
		}
	}
	return c
}

// ToNetwork elaborates the PLA as a multi-output AND/OR/NOT network.
func (p *PLA) ToNetwork() (*logic.Network, error) {
	n := logic.New(p.Name)
	ins := make([]logic.NodeID, p.NumInputs)
	for i, nm := range p.InputLabels {
		ins[i] = n.AddInput(nm)
	}
	invCache := make(map[int]logic.NodeID)
	inv := func(v int) logic.NodeID {
		if id, ok := invCache[v]; ok {
			return id
		}
		id := n.AddNot(ins[v])
		invCache[v] = id
		return id
	}
	// Cube AND gates are shared across outputs.
	cubeNode := make([]logic.NodeID, len(p.Rows))
	for r, cube := range p.Rows {
		var lits []logic.NodeID
		for v := 0; v < p.NumInputs; v++ {
			switch cube.Literal(v) {
			case sop.Pos:
				lits = append(lits, ins[v])
			case sop.Neg:
				lits = append(lits, inv(v))
			}
		}
		switch len(lits) {
		case 0:
			cubeNode[r] = n.AddConst(true)
		case 1:
			cubeNode[r] = lits[0]
		default:
			cubeNode[r] = n.AddAnd(lits...)
		}
	}
	for o := 0; o < p.NumOutputs; o++ {
		var terms []logic.NodeID
		for r := range p.Rows {
			if p.OutputPlane[r][o] == '1' || p.OutputPlane[r][o] == '4' {
				terms = append(terms, cubeNode[r])
			}
		}
		var driver logic.NodeID
		switch len(terms) {
		case 0:
			driver = n.AddConst(false)
		case 1:
			driver = n.AddBuf(terms[0])
		default:
			driver = n.AddOr(terms...)
		}
		n.MarkOutput(p.OutputLabels[o], driver)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("pla: invalid network: %w", err)
	}
	return n, nil
}

// FromCovers assembles a PLA from per-output covers over a shared input
// space.
func FromCovers(name string, inputLabels []string, outputLabels []string, covers []*sop.Cover) (*PLA, error) {
	if len(covers) == 0 {
		return nil, fmt.Errorf("pla: no covers")
	}
	numIn := covers[0].NumVars
	for _, c := range covers {
		if c.NumVars != numIn {
			return nil, fmt.Errorf("pla: covers disagree on input count")
		}
	}
	p := &PLA{
		Name:         name,
		NumInputs:    numIn,
		NumOutputs:   len(covers),
		InputLabels:  append([]string(nil), inputLabels...),
		OutputLabels: append([]string(nil), outputLabels...),
	}
	p.defaultLabels()
	for o, c := range covers {
		for _, cube := range c.Cubes {
			p.Rows = append(p.Rows, cube.Clone())
			plane := make([]byte, len(covers))
			for i := range plane {
				plane[i] = '-'
			}
			plane[o] = '1'
			p.OutputPlane = append(p.OutputPlane, plane)
		}
	}
	return p, nil
}

// Write serializes the PLA.
func Write(w io.Writer, p *PLA) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n", p.NumInputs, p.NumOutputs)
	fmt.Fprintf(bw, ".ilb %s\n", strings.Join(p.InputLabels, " "))
	fmt.Fprintf(bw, ".ob %s\n", strings.Join(p.OutputLabels, " "))
	fmt.Fprintf(bw, ".p %d\n", len(p.Rows))
	for r, cube := range p.Rows {
		fmt.Fprintf(bw, "%s %s\n", cube, p.OutputPlane[r])
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// WriteString serializes the PLA to a string.
func WriteString(p *PLA) (string, error) {
	var b strings.Builder
	if err := Write(&b, p); err != nil {
		return "", err
	}
	return b.String(), nil
}
