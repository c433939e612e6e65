// Package logic implements the Boolean logic network substrate used by the
// domino phase-assignment flow.
//
// A Network is a directed acyclic graph of gates. Nodes are created in
// topological order (every fanin must already exist), which keeps all
// downstream traversals trivially linear and makes the structure cheap to
// validate. Networks are the common currency of the whole reproduction:
// the BLIF reader produces them, the phase assigner rewrites them, the
// domino mapper consumes them and the simulator executes them.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a single Network. IDs are dense indexes
// into the Network's node table.
type NodeID int32

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Kind enumerates the gate types a Network can hold.
type Kind uint8

// Node kinds. And/Or/Xor are n-ary (at least one fanin); Not and Buf are
// unary. Const0/Const1 and Input have no fanins.
const (
	KindInput Kind = iota
	KindConst0
	KindConst1
	KindBuf
	KindNot
	KindAnd
	KindOr
	KindXor
	numKinds
)

// String returns a short lower-case mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindConst0:
		return "const0"
	case KindConst1:
		return "const1"
	case KindBuf:
		return "buf"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	case KindXor:
		return "xor"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsGate reports whether the kind is a logic gate (has fanins), as opposed
// to an input or constant.
func (k Kind) IsGate() bool {
	switch k {
	case KindBuf, KindNot, KindAnd, KindOr, KindXor:
		return true
	}
	return false
}

// Node is a single vertex of the network DAG.
type Node struct {
	Kind   Kind
	Fanins []NodeID
	// Name is optional; inputs and named internal signals carry one.
	Name string
}

// Output is a named primary output of a network. Several outputs may refer
// to the same driver node.
type Output struct {
	Name   string
	Driver NodeID
}

// Network is a combinational Boolean network. The zero value is not usable;
// call New.
type Network struct {
	// Name labels the network (model name in BLIF terms).
	Name string

	nodes   []Node
	inputs  []NodeID
	outputs []Output

	inputIndex  map[string]NodeID
	outputIndex map[string]int
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{
		Name:        name,
		inputIndex:  make(map[string]NodeID),
		outputIndex: make(map[string]int),
	}
}

// NumNodes returns the total number of nodes, including inputs and
// constants.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumInputs returns the number of primary inputs.
func (n *Network) NumInputs() int { return len(n.inputs) }

// NumOutputs returns the number of primary outputs.
func (n *Network) NumOutputs() int { return len(n.outputs) }

// Node returns the node with the given id. The returned value aliases the
// internal table; callers must not mutate Fanins.
func (n *Network) Node(id NodeID) *Node {
	return &n.nodes[id]
}

// Kind returns the kind of node id.
func (n *Network) Kind(id NodeID) Kind { return n.nodes[id].Kind }

// Fanins returns the fanin list of node id. The slice aliases internal
// storage.
func (n *Network) Fanins(id NodeID) []NodeID { return n.nodes[id].Fanins }

// Inputs returns the primary input node ids in creation order. The slice
// aliases internal storage.
func (n *Network) Inputs() []NodeID { return n.inputs }

// Outputs returns the primary outputs in creation order. The slice aliases
// internal storage.
func (n *Network) Outputs() []Output { return n.outputs }

// InputByName returns the input node with the given name, or InvalidNode.
func (n *Network) InputByName(name string) NodeID {
	if id, ok := n.inputIndex[name]; ok {
		return id
	}
	return InvalidNode
}

// OutputByName returns the output index with the given name, or -1.
func (n *Network) OutputByName(name string) int {
	if i, ok := n.outputIndex[name]; ok {
		return i
	}
	return -1
}

func (n *Network) add(node Node) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	return id
}

func (n *Network) checkFanins(kind Kind, fanins []NodeID) {
	for _, f := range fanins {
		if f < 0 || int(f) >= len(n.nodes) {
			panic(fmt.Sprintf("logic: %s fanin %d out of range [0,%d)", kind, f, len(n.nodes)))
		}
	}
}

// AddInput creates a new primary input with the given name. Names must be
// unique among inputs.
func (n *Network) AddInput(name string) NodeID {
	if _, dup := n.inputIndex[name]; dup {
		panic(fmt.Sprintf("logic: duplicate input %q", name))
	}
	id := n.add(Node{Kind: KindInput, Name: name})
	n.inputs = append(n.inputs, id)
	n.inputIndex[name] = id
	return id
}

// AddConst creates a constant node with the given value.
func (n *Network) AddConst(value bool) NodeID {
	k := KindConst0
	if value {
		k = KindConst1
	}
	return n.add(Node{Kind: k})
}

// AddBuf creates a buffer of a.
func (n *Network) AddBuf(a NodeID) NodeID {
	n.checkFanins(KindBuf, []NodeID{a})
	return n.add(Node{Kind: KindBuf, Fanins: []NodeID{a}})
}

// AddNot creates an inverter of a.
func (n *Network) AddNot(a NodeID) NodeID {
	n.checkFanins(KindNot, []NodeID{a})
	return n.add(Node{Kind: KindNot, Fanins: []NodeID{a}})
}

// AddAnd creates an n-ary AND of the given fanins (at least one).
func (n *Network) AddAnd(fanins ...NodeID) NodeID {
	return n.addNary(KindAnd, fanins)
}

// AddOr creates an n-ary OR of the given fanins (at least one).
func (n *Network) AddOr(fanins ...NodeID) NodeID {
	return n.addNary(KindOr, fanins)
}

// AddXor creates an n-ary XOR of the given fanins (at least one).
func (n *Network) AddXor(fanins ...NodeID) NodeID {
	return n.addNary(KindXor, fanins)
}

// AddGate creates a gate of the given kind. It dispatches to the typed
// constructors and panics on non-gate kinds.
func (n *Network) AddGate(kind Kind, fanins ...NodeID) NodeID {
	switch kind {
	case KindBuf:
		if len(fanins) != 1 {
			panic("logic: buf takes exactly one fanin")
		}
		return n.AddBuf(fanins[0])
	case KindNot:
		if len(fanins) != 1 {
			panic("logic: not takes exactly one fanin")
		}
		return n.AddNot(fanins[0])
	case KindAnd, KindOr, KindXor:
		return n.addNary(kind, fanins)
	default:
		panic(fmt.Sprintf("logic: AddGate of non-gate kind %s", kind))
	}
}

func (n *Network) addNary(kind Kind, fanins []NodeID) NodeID {
	if len(fanins) == 0 {
		panic(fmt.Sprintf("logic: %s requires at least one fanin", kind))
	}
	n.checkFanins(kind, fanins)
	fs := make([]NodeID, len(fanins))
	copy(fs, fanins)
	return n.add(Node{Kind: kind, Fanins: fs})
}

// SetName attaches a name to an internal node. It does not affect input or
// output name indexes.
func (n *Network) SetName(id NodeID, name string) { n.nodes[id].Name = name }

// MarkOutput declares node driver as the primary output called name.
// Output names must be unique.
func (n *Network) MarkOutput(name string, driver NodeID) int {
	if _, dup := n.outputIndex[name]; dup {
		panic(fmt.Sprintf("logic: duplicate output %q", name))
	}
	if driver < 0 || int(driver) >= len(n.nodes) {
		panic(fmt.Sprintf("logic: output %q driver %d out of range", name, driver))
	}
	idx := len(n.outputs)
	n.outputs = append(n.outputs, Output{Name: name, Driver: driver})
	n.outputIndex[name] = idx
	return idx
}

// FanoutLists returns, for every node, the list of node ids that use it as
// a fanin. Output references are not included.
func (n *Network) FanoutLists() [][]NodeID {
	lists := make([][]NodeID, len(n.nodes))
	for i := range n.nodes {
		for _, f := range n.nodes[i].Fanins {
			lists[f] = append(lists[f], NodeID(i))
		}
	}
	return lists
}

// GateCount returns the number of logic gates (excluding inputs, constants
// and buffers).
func (n *Network) GateCount() int {
	c := 0
	for i := range n.nodes {
		k := n.nodes[i].Kind
		if k.IsGate() && k != KindBuf {
			c++
		}
	}
	return c
}

// CountKind returns the number of nodes of the given kind.
func (n *Network) CountKind(k Kind) int {
	c := 0
	for i := range n.nodes {
		if n.nodes[i].Kind == k {
			c++
		}
	}
	return c
}

// HasInverters reports whether the network contains any NOT node.
func (n *Network) HasInverters() bool { return n.CountKind(KindNot) > 0 }

// Validate checks structural invariants: fanin ordering (DAG by
// construction), fanin arities per kind, and index consistency. It returns
// a descriptive error for the first violation found.
func (n *Network) Validate() error {
	for i := range n.nodes {
		node := &n.nodes[i]
		for _, f := range node.Fanins {
			if f < 0 || int(f) >= len(n.nodes) {
				return fmt.Errorf("node %d: fanin %d out of range", i, f)
			}
			if int(f) >= i {
				return fmt.Errorf("node %d: fanin %d not strictly earlier (cycle or disorder)", i, f)
			}
		}
		switch node.Kind {
		case KindInput, KindConst0, KindConst1:
			if len(node.Fanins) != 0 {
				return fmt.Errorf("node %d: %s must have no fanins", i, node.Kind)
			}
		case KindBuf, KindNot:
			if len(node.Fanins) != 1 {
				return fmt.Errorf("node %d: %s must have exactly one fanin, has %d", i, node.Kind, len(node.Fanins))
			}
		case KindAnd, KindOr, KindXor:
			if len(node.Fanins) < 1 {
				return fmt.Errorf("node %d: %s must have at least one fanin", i, node.Kind)
			}
		default:
			return fmt.Errorf("node %d: unknown kind %d", i, node.Kind)
		}
	}
	for name, id := range n.inputIndex {
		if id < 0 || int(id) >= len(n.nodes) || n.nodes[id].Kind != KindInput {
			return fmt.Errorf("input index %q points at non-input node %d", name, id)
		}
	}
	for name, idx := range n.outputIndex {
		if idx < 0 || idx >= len(n.outputs) || n.outputs[idx].Name != name {
			return fmt.Errorf("output index %q inconsistent", name)
		}
	}
	for _, o := range n.outputs {
		if o.Driver < 0 || int(o.Driver) >= len(n.nodes) {
			return fmt.Errorf("output %q driver %d out of range", o.Name, o.Driver)
		}
	}
	return nil
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := New(n.Name)
	c.nodes = make([]Node, len(n.nodes))
	for i := range n.nodes {
		c.nodes[i] = n.nodes[i]
		if len(n.nodes[i].Fanins) > 0 {
			c.nodes[i].Fanins = append([]NodeID(nil), n.nodes[i].Fanins...)
		}
	}
	c.inputs = append([]NodeID(nil), n.inputs...)
	c.outputs = append([]Output(nil), n.outputs...)
	for k, v := range n.inputIndex {
		c.inputIndex[k] = v
	}
	for k, v := range n.outputIndex {
		c.outputIndex[k] = v
	}
	return c
}

// String returns a compact human-readable dump of the network, one node
// per line, for debugging and golden tests.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s: %d nodes, %d inputs, %d outputs\n",
		n.Name, len(n.nodes), len(n.inputs), len(n.outputs))
	for i := range n.nodes {
		node := &n.nodes[i]
		fmt.Fprintf(&b, "  %4d %-6s", i, node.Kind)
		if len(node.Fanins) > 0 {
			parts := make([]string, len(node.Fanins))
			for j, f := range node.Fanins {
				parts[j] = fmt.Sprint(f)
			}
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, ","))
		}
		if node.Name != "" {
			fmt.Fprintf(&b, " %q", node.Name)
		}
		b.WriteByte('\n')
	}
	outs := make([]string, len(n.outputs))
	for i, o := range n.outputs {
		outs[i] = fmt.Sprintf("%s=%d", o.Name, o.Driver)
	}
	sort.Strings(outs)
	fmt.Fprintf(&b, "  outputs: %s\n", strings.Join(outs, " "))
	return b.String()
}

// Levels returns the topological level of every node: inputs and constants
// are level 0, a gate is 1 + max level of its fanins.
func (n *Network) Levels() []int {
	lv := make([]int, len(n.nodes))
	for i := range n.nodes {
		node := &n.nodes[i]
		if len(node.Fanins) == 0 {
			lv[i] = 0
			continue
		}
		max := 0
		for _, f := range node.Fanins {
			if lv[f] > max {
				max = lv[f]
			}
		}
		lv[i] = max + 1
	}
	return lv
}
