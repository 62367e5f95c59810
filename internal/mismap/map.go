package mismap

import (
	"fmt"

	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/mislib"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// Result is the outcome of a baseline mapping run.
type Result struct {
	Circuit *lut.Circuit
	LUTs    int
	Trees   int
	// DuplicatedNodes counts gate copies made by the greedy fanout
	// heuristic (zero when disabled).
	DuplicatedNodes int
}

// Options tunes the baseline mapper.
type Options struct {
	// GreedyFanoutDup models the MIS II behaviour the paper describes in
	// Section 4.2: "the greedy algorithm used by MIS to deal with nodes
	// with fanout greater than one tends to duplicate logic at fanout
	// nodes. We have found that it is difficult to realize any savings
	// by this greedy approach." Small multi-fanout gates are copied
	// into each consumer's tree before covering; the copies sometimes
	// merge into cells but usually just replicate area.
	GreedyFanoutDup bool
	// MaxDupFanout bounds how widely shared a gate may be and still get
	// duplicated (0 = unlimited). Highly shared gates replicate too
	// much area for even a greedy heuristic.
	MaxDupFanout int
}

// DefaultOptions reproduces the paper's MIS II configuration.
func DefaultOptions() Options { return Options{GreedyFanoutDup: true, MaxDupFanout: 3} }

// Map covers the network with cells from the library using the paper's
// MIS II configuration. See MapWithOptions.
func Map(input *network.Network, lib mislib.Library) (*Result, error) {
	return MapWithOptions(input, lib, DefaultOptions())
}

// MapWithOptions covers the network with cells from the library, K-input
// LUT cost one per cell and inverters free, returning the mapped
// circuit. The input network must be valid (network.Validate), which
// its callers check at their own boundary; it is not modified.
func MapWithOptions(input *network.Network, lib mislib.Library, o Options) (*Result, error) {
	nw := input.Clone()
	nw.Sweep()
	dups := 0
	if o.GreedyFanoutDup {
		dups = greedyFanoutDup(nw, lib.K, o.MaxDupFanout)
	}
	f, err := forest.Decompose(nw)
	if err != nil {
		return nil, err
	}

	m := &emitter{
		lib: &lib,
		ckt: lut.New(nw.Name, lib.K),
		sig: make(map[*network.Node]string),
		seq: 0,
	}
	for _, in := range nw.Inputs {
		m.ckt.AddInput(in.Name)
		m.sig[in] = in.Name
	}

	for _, root := range f.Roots {
		leafIntern := make(map[*network.Node]*subjNode)
		leafNode := func(n *network.Node) *subjNode {
			if s, ok := leafIntern[n]; ok {
				return s
			}
			sig, ok := m.sig[n]
			if !ok {
				sig = "?" // resolved later; roots are realized in order
			}
			s := &subjNode{leaf: true, signal: sig}
			leafIntern[n] = s
			return s
		}
		subj, err := buildSubject(root, f.IsLeafEdge, leafNode)
		if err != nil {
			return nil, err
		}
		computeBest(subj, m.lib)
		if subj.best >= 1<<29 {
			return nil, fmt.Errorf("mismap: tree %q has no cover in the K=%d library", root.Name, lib.K)
		}
		sig, err := m.emit(subj, root.Name)
		if err != nil {
			return nil, err
		}
		m.sig[root] = sig
	}

	for _, o := range nw.Outputs {
		sig, ok := m.sig[o.Node]
		if !ok {
			return nil, fmt.Errorf("mismap: output %q driver unmapped", o.Name)
		}
		m.ckt.MarkOutput(o.Name, sig, o.Invert)
	}
	for _, l := range nw.Latches {
		sig, ok := m.sig[l.D]
		if !ok {
			return nil, fmt.Errorf("mismap: latch %q driver unmapped", l.Q)
		}
		m.ckt.AddLatch(l.Q, sig, l.DInv, l.Init)
	}
	if err := m.ckt.Validate(); err != nil {
		return nil, fmt.Errorf("mismap: mapped circuit invalid: %w", err)
	}
	return &Result{Circuit: m.ckt, LUTs: m.ckt.Count(), Trees: len(f.Roots), DuplicatedNodes: dups}, nil
}

// greedyFanoutDup copies small multi-fanout gates into each consumer,
// dissolving tree boundaries the way the paper describes MIS II doing.
// Only gates small enough to merge into a K-input cell are copied.
func greedyFanoutDup(nw *network.Network, k, maxFanout int) int {
	nw.Reindex()
	counts := nw.FanoutCounts()
	gensym := 0
	fresh := func(base string) string {
		for {
			gensym++
			name := fmt.Sprintf("%s$g%d", base, gensym)
			if nw.Find(name) == nil {
				return name
			}
		}
	}
	gates := make([]*network.Node, 0, len(nw.Nodes))
	for _, n := range nw.Nodes {
		if !n.IsInput() {
			gates = append(gates, n)
		}
	}
	dups := 0
	for _, n := range gates {
		// Only two-input gates are considered: wider copies replicate
		// too much logic to ever pay off, and (per the paper) even this
		// rarely realizes savings.
		if len(n.Fanins) > 2 || len(n.Fanins) >= k {
			continue
		}
		if counts[n.ID] < 2 || (maxFanout > 0 && counts[n.ID] > maxFanout) {
			continue
		}
		for _, consumer := range gates {
			if consumer == n {
				continue
			}
			// Greedy absorbability check: copy only where a single
			// K-input cell could cover the consumer together with the
			// copy (the copy replaces one consumer input with its own
			// fanins).
			if len(consumer.Fanins)+len(n.Fanins)-1 > k {
				continue
			}
			for i, f := range consumer.Fanins {
				if f.Node != n {
					continue
				}
				cp := nw.AddGate(fresh(n.Name), n.Op, append([]network.Fanin(nil), n.Fanins...)...)
				consumer.Fanins[i] = network.Fanin{Node: cp, Invert: f.Invert}
				dups++
			}
		}
	}
	nw.Sweep()
	return dups
}

type emitter struct {
	lib *mislib.Library
	ckt *lut.Circuit
	sig map[*network.Node]string
	seq int
}

func (m *emitter) fresh(base string) string {
	for {
		m.seq++
		name := fmt.Sprintf("%s$m%d", base, m.seq)
		if m.ckt.Find(name) == nil {
			return name
		}
	}
}

// emit realizes the signal of an internal subject node from its chosen
// match, memoized, returning the signal name.
func (m *emitter) emit(n *subjNode, base string) (string, error) {
	if n.leaf {
		if n.signal == "?" {
			return "", fmt.Errorf("mismap: unresolved leaf signal under %q", base)
		}
		return n.signal, nil
	}
	if n.emitted != "" {
		return n.emitted, nil
	}
	rec := n.chosen
	if rec == nil {
		return "", fmt.Errorf("mismap: no match chosen under %q", base)
	}
	// Distinct bound nodes become the LUT inputs.
	var inputs []string
	inputIdx := map[*subjNode]int{}
	var order []*subjNode
	for v := 0; v < rec.cell.Vars; v++ {
		b := rec.binding[v]
		if _, ok := inputIdx[b.n]; ok {
			continue
		}
		sig, err := m.emit(b.n, base)
		if err != nil {
			return "", err
		}
		inputIdx[b.n] = len(inputs)
		inputs = append(inputs, sig)
		order = append(order, b.n)
	}
	_ = order
	// Table over the distinct inputs: variable v of the cell reads input
	// pin inputIdx[binding[v].n], inverted if the binding phase is set;
	// the whole output is inverted if matched at phase 1.
	table := truth.FromFunc(len(inputs), func(assign uint) bool {
		var cellAssign uint
		for v := 0; v < rec.cell.Vars; v++ {
			b := rec.binding[v]
			val := assign>>uint(inputIdx[b.n])&1 == 1
			if b.phase {
				val = !val
			}
			if val {
				cellAssign |= 1 << uint(v)
			}
		}
		out := rec.cell.F.Eval(cellAssign)
		if rec.outPhase {
			out = !out
		}
		return out
	})
	name := base
	if m.ckt.Find(name) != nil || m.hasInput(name) {
		name = m.fresh(base)
	}
	m.ckt.AddLUT(name, inputs, table)
	n.emitted = name
	return name, nil
}

func (m *emitter) hasInput(name string) bool {
	for _, in := range m.ckt.Inputs {
		if in == name {
			return true
		}
	}
	return false
}
