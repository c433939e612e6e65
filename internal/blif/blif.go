// Package blif reads and writes a practical subset of the Berkeley Logic
// Interchange Format (BLIF), the lingua franca of the MCNC benchmark suite
// the paper evaluates on.
//
// Supported constructs: .model, .inputs, .outputs, .names (single-output
// SOP covers), .latch (D flip-flops with optional initial value), .end,
// '\' line continuation and '#' comments. Covers are converted into
// AND/OR/NOT networks; latches are returned separately so the sequential
// layer (internal/seq) can attach them.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
)

// Latch describes one .latch directive: a D flip-flop from Input to
// Output with the given initial value (0, 1, or 2/3 for don't-care, which
// we normalize to 0).
type Latch struct {
	Input  string
	Output string
	Init   int
}

// Model is a parsed BLIF model: a combinational network plus latch
// descriptions. Latch outputs appear as primary inputs of the network and
// latch inputs as primary outputs, in keeping with the standard
// combinational view of a sequential circuit.
type Model struct {
	Network *logic.Network
	Latches []Latch
}

type cover struct {
	output string
	inputs []string
	rows   []coverRow
}

type coverRow struct {
	pattern string // over inputs: '0', '1', '-'
	value   byte   // '0' or '1'
}

// Parse reads a BLIF model from r. Only the first .model in the stream is
// parsed.
func Parse(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	var name string
	var inputs, outputs []string
	var latches []Latch
	var covers []*cover
	var current *cover
	seenEnd := false
	inExdc := false

	lineNo := 0
	process := func(line string) error {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil // a continuation that joined to whitespace only
		}
		if inExdc && fields[0] != ".end" {
			// The external-don't-care section describes flexibility, not
			// the model: its .names covers (and any other construct) must
			// not merge into the main network. Skip wholesale until .end.
			return nil
		}
		for _, f := range fields {
			// Written back, such a token could end a line and read as
			// a continuation.
			if strings.HasSuffix(f, "\\") {
				return fmt.Errorf("blif: line %d: token %q ends in a backslash", lineNo, f)
			}
		}
		switch fields[0] {
		case ".model":
			if name != "" {
				return fmt.Errorf("blif: line %d: multiple .model", lineNo)
			}
			if len(fields) > 1 {
				name = fields[1]
			} else {
				name = "unnamed"
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			current = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			current = nil
		case ".latch":
			if len(fields) < 3 {
				return fmt.Errorf("blif: line %d: .latch needs input and output", lineNo)
			}
			l := Latch{Input: fields[1], Output: fields[2]}
			// Optional trailing fields: [type control] [init].
			if len(fields) >= 4 {
				last := fields[len(fields)-1]
				switch last {
				case "0":
					l.Init = 0
				case "1":
					l.Init = 1
				case "2", "3":
					l.Init = 0
				}
			}
			latches = append(latches, l)
			current = nil
		case ".names":
			if len(fields) < 2 {
				return fmt.Errorf("blif: line %d: .names needs at least an output", lineNo)
			}
			c := &cover{
				output: fields[len(fields)-1],
				inputs: append([]string(nil), fields[1:len(fields)-1]...),
			}
			covers = append(covers, c)
			current = c
		case ".end":
			seenEnd = true
			inExdc = false
			current = nil
		case ".exdc":
			inExdc = true
			current = nil
		case ".wire_load_slope", ".default_input_arrival", ".clock":
			// Recognized-but-ignored extensions.
			current = nil
		default:
			if strings.HasPrefix(fields[0], ".") {
				return fmt.Errorf("blif: line %d: unsupported directive %s", lineNo, fields[0])
			}
			if current == nil {
				return fmt.Errorf("blif: line %d: cover row outside .names", lineNo)
			}
			// Cover row: "<pattern> <value>" or just "<value>" for
			// constant covers.
			switch len(fields) {
			case 1:
				if len(current.inputs) != 0 {
					return fmt.Errorf("blif: line %d: pattern missing", lineNo)
				}
				current.rows = append(current.rows, coverRow{value: fields[0][0]})
			case 2:
				if len(fields[0]) != len(current.inputs) {
					return fmt.Errorf("blif: line %d: pattern width %d, want %d", lineNo, len(fields[0]), len(current.inputs))
				}
				current.rows = append(current.rows, coverRow{pattern: fields[0], value: fields[1][0]})
			default:
				return fmt.Errorf("blif: line %d: malformed cover row", lineNo)
			}
		}
		return nil
	}

	var pending string
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""
		if line == "" {
			continue
		}
		if err := process(line); err != nil {
			return nil, err
		}
		if seenEnd {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	// A '\' on the file's last line accumulates into pending with no
	// following line to terminate it; flush the continued content instead
	// of silently dropping the whole directive.
	if pending != "" && !seenEnd {
		if err := process(pending); err != nil {
			return nil, err
		}
	}
	if name == "" {
		return nil, fmt.Errorf("blif: no .model found")
	}
	return build(name, inputs, outputs, latches, covers)
}

// ParseString parses a BLIF model held in a string.
func ParseString(s string) (*Model, error) { return Parse(strings.NewReader(s)) }

func build(name string, inputs, outputs []string, latches []Latch, covers []*cover) (*Model, error) {
	n := logic.New(name)
	signal := make(map[string]logic.NodeID)

	for _, in := range inputs {
		if _, dup := signal[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %s", in)
		}
		signal[in] = n.AddInput(in)
	}
	// Latch outputs are pseudo-inputs of the combinational network.
	for _, l := range latches {
		if _, dup := signal[l.Output]; dup {
			return nil, fmt.Errorf("blif: latch output %s collides", l.Output)
		}
		signal[l.Output] = n.AddInput(l.Output)
	}

	// Covers may be declared in any order; elaborate on demand.
	coverOf := make(map[string]*cover, len(covers))
	for _, c := range covers {
		if _, dup := coverOf[c.output]; dup {
			return nil, fmt.Errorf("blif: signal %s defined twice", c.output)
		}
		coverOf[c.output] = c
	}

	visiting := make(map[string]bool)
	var elaborate func(sig string) (logic.NodeID, error)
	elaborate = func(sig string) (logic.NodeID, error) {
		if id, ok := signal[sig]; ok {
			return id, nil
		}
		c, ok := coverOf[sig]
		if !ok {
			return logic.InvalidNode, fmt.Errorf("blif: undriven signal %s", sig)
		}
		if visiting[sig] {
			return logic.InvalidNode, fmt.Errorf("blif: combinational cycle through %s", sig)
		}
		visiting[sig] = true
		defer delete(visiting, sig)
		faninIDs := make([]logic.NodeID, len(c.inputs))
		for i, in := range c.inputs {
			id, err := elaborate(in)
			if err != nil {
				return logic.InvalidNode, err
			}
			faninIDs[i] = id
		}
		id, err := elaborateCover(n, c, faninIDs)
		if err != nil {
			return logic.InvalidNode, err
		}
		// A trivial cover (e.g. a one-literal buffer) can collapse onto
		// an existing node; wrap it so naming this signal cannot clobber
		// the name of the node it aliases.
		if n.Node(id).Name != "" {
			id = n.AddBuf(id)
		}
		n.SetName(id, sig)
		signal[sig] = id
		return id, nil
	}

	for _, out := range outputs {
		if n.OutputByName(out) >= 0 {
			return nil, fmt.Errorf("blif: duplicate output %s", out)
		}
		id, err := elaborate(out)
		if err != nil {
			return nil, err
		}
		n.MarkOutput(out, id)
	}
	// Latch inputs (next-state functions) are pseudo-outputs.
	for _, l := range latches {
		id, err := elaborate(l.Input)
		if err != nil {
			return nil, err
		}
		if n.OutputByName(l.Input) < 0 {
			n.MarkOutput(l.Input, id)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("blif: built invalid network: %w", err)
	}
	return &Model{Network: n, Latches: latches}, nil
}

// elaborateCover converts one SOP cover into gates. BLIF covers list
// either the on-set (value '1') or the off-set (value '0'); mixing is not
// allowed. Off-set covers produce the complement of the listed cubes.
func elaborateCover(n *logic.Network, c *cover, fanins []logic.NodeID) (logic.NodeID, error) {
	if len(c.rows) == 0 {
		// Empty cover is constant 0.
		return n.AddConst(false), nil
	}
	value := c.rows[0].value
	for _, r := range c.rows {
		if r.value != value {
			return logic.InvalidNode, fmt.Errorf("blif: cover for %s mixes on-set and off-set", c.output)
		}
	}
	if len(c.inputs) == 0 {
		return n.AddConst(value == '1'), nil
	}
	var cubes []logic.NodeID
	for _, r := range c.rows {
		var lits []logic.NodeID
		for i, ch := range []byte(r.pattern) {
			switch ch {
			case '1':
				lits = append(lits, fanins[i])
			case '0':
				lits = append(lits, n.AddNot(fanins[i]))
			case '-':
				// Unused literal.
			default:
				return logic.InvalidNode, fmt.Errorf("blif: bad pattern char %q in cover for %s", ch, c.output)
			}
		}
		switch len(lits) {
		case 0:
			// A row of all '-' makes the cover a tautology.
			lits = append(lits, n.AddConst(true))
		}
		if len(lits) == 1 {
			cubes = append(cubes, lits[0])
		} else {
			cubes = append(cubes, n.AddAnd(lits...))
		}
	}
	var sum logic.NodeID
	if len(cubes) == 1 {
		sum = cubes[0]
	} else {
		sum = n.AddOr(cubes...)
	}
	if value == '0' {
		sum = n.AddNot(sum)
	}
	return sum, nil
}

// Write serializes a model to BLIF. Internal nodes get synthetic names
// (n<id>, made unique) unless they carry one. Gates are written as
// minimal covers: AND/OR/NOT/BUF/XOR become equivalent .names blocks.
func Write(w io.Writer, m *Model) error {
	n := m.Network
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)

	latchOut := make(map[string]bool, len(m.Latches))
	for _, l := range m.Latches {
		latchOut[l.Output] = true
	}
	fmt.Fprint(bw, ".inputs")
	for _, id := range n.Inputs() {
		if latchOut[n.Node(id).Name] {
			continue
		}
		fmt.Fprintf(bw, " %s", n.Node(id).Name)
	}
	fmt.Fprintln(bw)

	// Every output is declared, latch inputs included: Parse appends
	// only the latch inputs .outputs did not declare, so declaring them
	// all keeps the output order on re-parse.
	fmt.Fprint(bw, ".outputs")
	for _, o := range n.Outputs() {
		fmt.Fprintf(bw, " %s", o.Name)
	}
	fmt.Fprintln(bw)

	for _, l := range m.Latches {
		fmt.Fprintf(bw, ".latch %s %s %d\n", l.Input, l.Output, l.Init)
	}

	// Unnamed nodes get n<id>, suffixed with '_' until it collides with
	// no node or output name.
	names := make([]string, n.NumNodes())
	used := make(map[string]bool, len(names))
	for i := range names {
		names[i] = n.Node(logic.NodeID(i)).Name
		used[names[i]] = true
	}
	for _, o := range n.Outputs() {
		used[o.Name] = true
	}
	for i := range names {
		if names[i] == "" {
			names[i] = fmt.Sprintf("n%d", i)
			for used[names[i]] {
				names[i] += "_"
			}
		}
	}
	nodeName := func(id logic.NodeID) string { return names[id] }

	for i := 0; i < n.NumNodes(); i++ {
		id := logic.NodeID(i)
		node := n.Node(id)
		switch node.Kind {
		case logic.KindInput:
			continue
		case logic.KindConst0:
			fmt.Fprintf(bw, ".names %s\n", nodeName(id))
		case logic.KindConst1:
			fmt.Fprintf(bw, ".names %s\n1\n", nodeName(id))
		case logic.KindBuf:
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", nodeName(node.Fanins[0]), nodeName(id))
		case logic.KindNot:
			fmt.Fprintf(bw, ".names %s %s\n0 1\n", nodeName(node.Fanins[0]), nodeName(id))
		case logic.KindAnd:
			writeHeader(bw, n, node, nodeName, id)
			fmt.Fprintf(bw, "%s 1\n", strings.Repeat("1", len(node.Fanins)))
		case logic.KindOr:
			writeHeader(bw, n, node, nodeName, id)
			for j := range node.Fanins {
				row := make([]byte, len(node.Fanins))
				for k := range row {
					row[k] = '-'
				}
				row[j] = '1'
				fmt.Fprintf(bw, "%s 1\n", row)
			}
		case logic.KindXor:
			writeHeader(bw, n, node, nodeName, id)
			// Enumerate odd-parity rows; XOR fanin counts are small in
			// practice (DecomposeXor first if not).
			k := len(node.Fanins)
			if k > 16 {
				return fmt.Errorf("blif: XOR with %d fanins too wide to serialize", k)
			}
			for m := 0; m < 1<<uint(k); m++ {
				if parity(m) {
					row := make([]byte, k)
					for j := 0; j < k; j++ {
						if m&(1<<uint(j)) != 0 {
							row[j] = '1'
						} else {
							row[j] = '0'
						}
					}
					fmt.Fprintf(bw, "%s 1\n", row)
				}
			}
		}
	}
	// Outputs driven by differently-named nodes need an alias buffer.
	for _, o := range n.Outputs() {
		if nodeName(o.Driver) != o.Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", nodeName(o.Driver), o.Name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeHeader(bw *bufio.Writer, n *logic.Network, node *logic.Node, nodeName func(logic.NodeID) string, id logic.NodeID) {
	fmt.Fprint(bw, ".names")
	for _, f := range node.Fanins {
		fmt.Fprintf(bw, " %s", nodeName(f))
	}
	fmt.Fprintf(bw, " %s\n", nodeName(id))
}

func parity(m int) bool {
	p := false
	for m != 0 {
		p = !p
		m &= m - 1
	}
	return p
}

// WriteString serializes a model to a string.
func WriteString(m *Model) (string, error) {
	var b strings.Builder
	if err := Write(&b, m); err != nil {
		return "", err
	}
	return b.String(), nil
}
