// Package network implements the Boolean network representation of the
// Chortle paper's Section 2: a directed acyclic graph whose non-input
// nodes each compute a single AND or OR over their fanin variables, with
// edges labelled for polarity (inversion) and designated output nodes.
// This is the technology-independent form handed to the mappers; the
// logic optimizer (internal/opt) produces it and both Chortle
// (internal/core) and the MIS-style baseline (internal/mismap) consume it.
//
// Nodes are carved from chunks (internal/slab), not allocated one by
// one: a *Node stays valid for as long as it is referenced, whatever is
// added after it. Code that knows how many nodes it will add says so
// with Grow, which sizes Nodes, the chunk and the name index once.
package network

import (
	"fmt"
	"slices"
	"sort"

	"chortle/internal/cerrs"
	"chortle/internal/slab"
)

// Op is the Boolean operation of a node.
type Op uint8

const (
	// OpInput marks a primary input (no fanins).
	OpInput Op = iota
	// OpAnd computes the conjunction of the fanin literals.
	OpAnd
	// OpOr computes the disjunction of the fanin literals.
	OpOr
)

// String returns the conventional lowercase name of the operation.
func (o Op) String() string {
	switch o {
	case OpInput:
		return "input"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Dual returns the other gate operation (AND <-> OR). Inputs are self-dual.
func (o Op) Dual() Op {
	switch o {
	case OpAnd:
		return OpOr
	case OpOr:
		return OpAnd
	}
	return o
}

// Fanin is a polarized edge from Node into its consumer.
type Fanin struct {
	Node   *Node
	Invert bool
}

// Node is a vertex of the Boolean network. Input nodes have no fanins;
// gate nodes apply Op over two or more fanin literals (a single fanin is
// a buffer or inverter, tolerated transiently and removed by Sweep).
type Node struct {
	Name   string
	Op     Op
	Fanins []Fanin

	// ID is the node's index in Network.Nodes after Reindex. Algorithms
	// use it to key side tables; it is not stable across edits.
	ID int
}

// IsInput reports whether the node is a primary input.
func (n *Node) IsInput() bool { return n.Op == OpInput }

// Output designates a network output: the polarized value of a node.
type Output struct {
	Name   string
	Node   *Node
	Invert bool
}

// Latch is a sequential element seen from the combinational view: its
// output Q is a primary input, and its data input D (a polarized node)
// must be realized like a primary output. Technology mapping is purely
// combinational — latches ride through unchanged, as in the MIS/SIS
// flow the paper's benchmarks came from.
type Latch struct {
	Q    string // latch output signal; must be a declared input
	D    *Node  // data input driver
	DInv bool
	Init byte // BLIF initial value: '0', '1', '2' (don't care) or '3'
}

// Network is a multi-input multi-output Boolean network.
type Network struct {
	Name    string
	Nodes   []*Node // all nodes; inputs and gates in insertion order
	Inputs  []*Node
	Outputs []Output
	Latches []Latch

	byName map[string]*Node
	nodes  slab.Slab[Node] // the chunks new nodes are carved from
}

// New returns an empty network with the given model name.
func New(name string) *Network {
	return &Network{Name: name}
}

// Grow makes room for n more nodes: in Nodes, in the chunk new nodes
// are carved from and, while the network has no node yet, in the name
// index. Like bytes.Buffer.Grow it is a capacity hint; a network grown
// too little or too much holds the same nodes.
func (nw *Network) Grow(n int) {
	nw.Nodes = slices.Grow(nw.Nodes, n)
	nw.nodes.Grow(n)
	if len(nw.byName) == 0 {
		nw.byName = make(map[string]*Node, n)
	}
}

// AddInput creates and returns a primary input node. Duplicate names are
// a programming error and panic.
func (nw *Network) AddInput(name string) *Node {
	n := nw.insert(name, OpInput)
	nw.Inputs = append(nw.Inputs, n)
	return n
}

// AddGate creates a gate node computing op over the fanins. The node
// keeps the fanins slice itself, not a copy.
func (nw *Network) AddGate(name string, op Op, fanins ...Fanin) *Node {
	if op != OpAnd && op != OpOr {
		panic("network: AddGate requires OpAnd or OpOr")
	}
	n := nw.insert(name, op)
	n.Fanins = fanins
	return n
}

// insert carves a node from the chunk and registers it under name.
func (nw *Network) insert(name string, op Op) *Node {
	if nw.byName == nil {
		nw.byName = make(map[string]*Node)
	}
	if _, dup := nw.byName[name]; dup {
		// A programming error at this layer, but reachable from user
		// input through builder paths; the panic value is an error
		// wrapping the sentinel so the public API boundary can recover
		// it into something errors.Is can classify.
		panic(fmt.Errorf("network: %w: node %q", cerrs.ErrDuplicateName, name))
	}
	n := nw.nodes.New()
	n.Name, n.Op, n.ID = name, op, len(nw.Nodes)
	nw.Nodes = append(nw.Nodes, n)
	nw.byName[name] = n
	return n
}

// Find returns the node with the given name, or nil.
func (nw *Network) Find(name string) *Node {
	return nw.byName[name]
}

// MarkOutput designates the (possibly inverted) node value as a network
// output with the given name.
func (nw *Network) MarkOutput(name string, n *Node, invert bool) {
	nw.Outputs = append(nw.Outputs, Output{Name: name, Node: n, Invert: invert})
}

// AddLatch registers a latch whose output q (an already-declared input)
// is fed by the polarized value of d.
func (nw *Network) AddLatch(q string, d *Node, dInv bool, init byte) {
	nw.Latches = append(nw.Latches, Latch{Q: q, D: d, DInv: dInv, Init: init})
}

// latchKey is the pseudo-output name under which Simulate reports a
// latch's data-input value.
func latchKey(q string) string { return "$latch$" + q }

// LatchKey exposes the pseudo-output naming for verification tools.
func LatchKey(q string) string { return latchKey(q) }

// Reindex renumbers node IDs to match their position in Nodes.
func (nw *Network) Reindex() {
	for i, n := range nw.Nodes {
		n.ID = i
	}
}

// FanoutCounts returns, indexed by node ID, the out-degree of every node:
// the number of fanin references from gates plus output designations.
// Callers must Reindex first if they have edited the network.
func (nw *Network) FanoutCounts() []int {
	counts := make([]int, len(nw.Nodes))
	for _, n := range nw.Nodes {
		for _, f := range n.Fanins {
			counts[f.Node.ID]++
		}
	}
	for _, o := range nw.Outputs {
		counts[o.Node.ID]++
	}
	for _, l := range nw.Latches {
		counts[l.D.ID]++
	}
	return counts
}

// TopoSort returns the nodes in topological order (fanins before
// consumers) or an error if the graph has a cycle or a dangling edge.
// The depth-first walk keeps an explicit stack, so a deep chain cannot
// overflow the goroutine stack.
func (nw *Network) TopoSort() ([]*Node, error) {
	nw.Reindex()
	w := topoWalk{
		nw:    nw,
		state: make([]uint8, len(nw.Nodes)),
		order: make([]*Node, 0, len(nw.Nodes)),
		stack: make([]topoFrame, 0, 64),
	}
	// Visit from outputs first so the order favours live logic, then the
	// rest so dangling nodes still get positions.
	for _, o := range nw.Outputs {
		if err := w.visit(o.Node); err != nil {
			return nil, err
		}
	}
	for _, l := range nw.Latches {
		if err := w.visit(l.D); err != nil {
			return nil, err
		}
	}
	for _, n := range nw.Nodes {
		if err := w.visit(n); err != nil {
			return nil, err
		}
	}
	return w.order, nil
}

// topoWalk is TopoSort's depth-first walk. state holds each node's
// colour by ID: unvisited, on the stack, or done.
type topoWalk struct {
	nw    *Network
	state []uint8
	order []*Node
	stack []topoFrame
}

type topoFrame struct {
	n    *Node
	next int // index of the next fanin to visit
}

const (
	topoWhite = iota
	topoGray
	topoBlack
)

// visit appends root and every node below it to the order in
// post-order, taking fanins in order, as a recursive walk would.
// Reaching a node that is still on the stack closes a cycle.
func (w *topoWalk) visit(root *Node) error {
	nw, state, stack := w.nw, w.state, w.stack[:0]
	switch state[root.ID] {
	case topoGray:
		return w.cycle(root)
	case topoBlack:
		return nil
	}
	state[root.ID] = topoGray
	stack = append(stack, topoFrame{n: root})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		n := top.n
		if top.next == len(n.Fanins) {
			state[n.ID] = topoBlack
			w.order = append(w.order, n)
			stack = stack[:len(stack)-1]
			continue
		}
		f := n.Fanins[top.next]
		top.next++
		if f.Node == nil {
			return fmt.Errorf("network %q: node %q has nil fanin", nw.Name, n.Name)
		}
		if f.Node.ID >= len(nw.Nodes) || nw.Nodes[f.Node.ID] != f.Node {
			return fmt.Errorf("network %q: node %q has fanin %q not in network", nw.Name, n.Name, f.Node.Name)
		}
		switch state[f.Node.ID] {
		case topoGray:
			return w.cycle(f.Node)
		case topoWhite:
			state[f.Node.ID] = topoGray
			stack = append(stack, topoFrame{n: f.Node})
		}
	}
	w.stack = stack // keep the grown stack for the next root
	return nil
}

func (w *topoWalk) cycle(n *Node) error {
	return fmt.Errorf("network %q: %w through node %q", w.nw.Name, cerrs.ErrCycle, n.Name)
}

// Validate checks structural invariants: unique names, registered
// fanins, acyclicity, gates with at least one fanin, and outputs that
// reference network nodes. It returns the first violation found. Node
// names are distinct when the name index holds exactly the nodes; only
// a network edited through its fields needs a set of every name.
func (nw *Network) Validate() error {
	var seen map[string]bool
	if !nw.indexed() {
		seen = make(map[string]bool, len(nw.Nodes))
	}
	for _, n := range nw.Nodes {
		if seen != nil {
			if seen[n.Name] {
				return fmt.Errorf("network %q: %w: node %q", nw.Name, cerrs.ErrDuplicateName, n.Name)
			}
			seen[n.Name] = true
		}
		switch n.Op {
		case OpInput:
			if len(n.Fanins) != 0 {
				return fmt.Errorf("network %q: input %q has fanins", nw.Name, n.Name)
			}
		case OpAnd, OpOr:
			if len(n.Fanins) == 0 {
				return fmt.Errorf("network %q: gate %q has no fanins", nw.Name, n.Name)
			}
		default:
			return fmt.Errorf("network %q: node %q has invalid op %d", nw.Name, n.Name, n.Op)
		}
	}
	if len(nw.Outputs) == 0 && len(nw.Latches) == 0 {
		return fmt.Errorf("network %q: no outputs", nw.Name)
	}
	outNames := make(map[string]bool, len(nw.Outputs))
	for _, o := range nw.Outputs {
		if o.Node == nil {
			return fmt.Errorf("network %q: output %q references nil node", nw.Name, o.Name)
		}
		if outNames[o.Name] {
			return fmt.Errorf("network %q: %w: output %q", nw.Name, cerrs.ErrDuplicateName, o.Name)
		}
		outNames[o.Name] = true
	}
	latchQ := make(map[string]bool, len(nw.Latches))
	for _, l := range nw.Latches {
		if l.D == nil {
			return fmt.Errorf("network %q: latch %q has nil data input", nw.Name, l.Q)
		}
		if q := nw.Find(l.Q); q == nil || !q.IsInput() {
			return fmt.Errorf("network %q: latch output %q is not a declared input", nw.Name, l.Q)
		}
		if latchQ[l.Q] {
			return fmt.Errorf("network %q: duplicate latch %q", nw.Name, l.Q)
		}
		latchQ[l.Q] = true
	}
	_, err := nw.TopoSort()
	return err
}

// indexed reports whether the name index holds exactly the nodes, each
// under its own name, so that no two nodes share a name.
func (nw *Network) indexed() bool {
	if len(nw.byName) != len(nw.Nodes) {
		return false
	}
	for _, n := range nw.Nodes {
		if nw.byName[n.Name] != n {
			return false
		}
	}
	return true
}

// Stats summarizes the structure of a network.
type Stats struct {
	Inputs   int
	Outputs  int
	Gates    int
	Edges    int
	MaxFanin int
	Depth    int // longest input-to-output path in gate levels
}

// Stats computes structural statistics. The network must be acyclic.
func (nw *Network) Stats() Stats {
	s := Stats{Inputs: len(nw.Inputs), Outputs: len(nw.Outputs)}
	order, err := nw.TopoSort()
	if err != nil {
		panic(err) // Stats on a cyclic network is a programming error
	}
	depth := make([]int, len(nw.Nodes))
	for _, n := range order {
		if n.IsInput() {
			continue
		}
		s.Gates++
		s.Edges += len(n.Fanins)
		if len(n.Fanins) > s.MaxFanin {
			s.MaxFanin = len(n.Fanins)
		}
		d := 0
		for _, f := range n.Fanins {
			if fd := depth[f.Node.ID]; fd > d {
				d = fd
			}
		}
		depth[n.ID] = d + 1
		if depth[n.ID] > s.Depth {
			s.Depth = depth[n.ID]
		}
	}
	return s
}

// SortedOutputs returns the outputs ordered by name, for deterministic
// iteration in writers and comparisons.
func (nw *Network) SortedOutputs() []Output {
	out := append([]Output(nil), nw.Outputs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
