package network

import "slices"

// Structural clean-up passes. The mappers assume a swept network: every
// gate has at least two distinct fanins and every node reaches an output.
// Logic optimization can leave buffers, inverter chains (fanin-1 gates),
// duplicate fanins and dead logic behind; Sweep removes them all.

// Sweep simplifies the network in place:
//
//   - fanin-1 gates (buffers/inverters) are bypassed, folding their
//     polarity into every consumer;
//   - duplicate same-polarity fanins of a gate are merged (x AND x = x);
//   - gates unreachable from any output are deleted.
//
// It returns the number of nodes removed. Sweep preserves network
// functionality (outputs compute the same functions).
func (nw *Network) Sweep() int {
	type lit struct {
		n   *Node
		inv bool
	}
	// chase follows chains of fanin-1 gates to the driving literal.
	chase := func(n *Node, inv bool) lit {
		for !n.IsInput() && len(n.Fanins) == 1 {
			inv = inv != n.Fanins[0].Invert
			n = n.Fanins[0].Node
		}
		return lit{n, inv}
	}

	// Side tables are indexed by node ID. A node outside nw.Nodes, which
	// only a hand-built network can reach, has no slot and takes a slower
	// path with the same result.
	nw.Reindex()
	seen := make([]uint32, 2*len(nw.Nodes)) // literals kept in the current gate, stamped gen
	var gen uint32
	for changed := true; changed; {
		changed = false
		for _, n := range nw.Nodes {
			if n.IsInput() {
				continue
			}
			gen++
			kept := n.Fanins[:0]
			for _, f := range n.Fanins {
				l := chase(f.Node, f.Invert)
				if l.n != f.Node || l.inv != f.Invert {
					changed = true
				}
				fin := Fanin{Node: l.n, Invert: l.inv}
				var dup bool
				if nw.owns(l.n) {
					k := 2 * l.n.ID
					if l.inv {
						k++
					}
					dup, seen[k] = seen[k] == gen, gen
				} else {
					dup = slices.Contains(kept, fin)
				}
				if dup {
					changed = true
					continue // duplicate literal: idempotent under AND/OR
				}
				kept = append(kept, fin)
			}
			n.Fanins = kept
		}
	}
	for i := range nw.Outputs {
		l := chase(nw.Outputs[i].Node, nw.Outputs[i].Invert)
		nw.Outputs[i].Node, nw.Outputs[i].Invert = l.n, l.inv
	}
	for i := range nw.Latches {
		l := chase(nw.Latches[i].D, nw.Latches[i].DInv)
		nw.Latches[i].D, nw.Latches[i].DInv = l.n, l.inv
	}

	// Dead-logic removal: keep primary inputs (the external interface is
	// stable even if an input is unused) and everything reachable from
	// an output, found with an explicit stack so that no depth of logic
	// can overflow the goroutine stack.
	live := make([]bool, len(nw.Nodes))
	var liveOutside map[*Node]bool
	var stack []*Node
	for _, o := range nw.Outputs {
		stack = append(stack, o.Node)
	}
	for _, l := range nw.Latches {
		stack = append(stack, l.D)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nw.owns(n) {
			if live[n.ID] {
				continue
			}
			live[n.ID] = true
		} else {
			if liveOutside[n] {
				continue
			}
			if liveOutside == nil {
				liveOutside = make(map[*Node]bool)
			}
			liveOutside[n] = true
		}
		for _, f := range n.Fanins {
			stack = append(stack, f.Node)
		}
	}
	removed := 0
	keptNodes := nw.Nodes[:0]
	for _, n := range nw.Nodes {
		if n.IsInput() || live[n.ID] {
			keptNodes = append(keptNodes, n)
		} else {
			delete(nw.byName, n.Name)
			removed++
		}
	}
	nw.Nodes = keptNodes
	nw.Reindex()
	return removed
}

// owns reports whether n is in nw.Nodes at position n.ID, that is,
// whether n has a slot in a side table indexed by node ID.
func (nw *Network) owns(n *Node) bool {
	return uint(n.ID) < uint(len(nw.Nodes)) && nw.Nodes[n.ID] == n
}

// Clone returns a deep copy of the network. Node identity is fresh; the
// copy can be edited without affecting the original. The copied nodes
// share one allocation and so do their fanin lists, each capped at its
// length. A fanin, output or latch driver outside nw.Nodes has no copy
// and becomes nil.
func (nw *Network) Clone() *Network {
	cp := &Network{Name: nw.Name, byName: make(map[string]*Node, len(nw.Nodes))}
	nodes := make([]Node, len(nw.Nodes))
	total := 0
	for _, n := range nw.Nodes {
		total += len(n.Fanins)
	}
	fanins := make([]Fanin, total)
	cp.Nodes = make([]*Node, 0, len(nw.Nodes))
	for i, n := range nw.Nodes {
		nn := &nodes[i]
		nn.Name, nn.Op = n.Name, n.Op
		cp.insert(nn)
		if n.IsInput() {
			cp.Inputs = append(cp.Inputs, nn)
		}
	}
	// IDs may be stale if nw was edited without a Reindex; position
	// lookups then fall back to a map built once.
	var pos map[*Node]int
	copyOf := func(n *Node) *Node {
		if n == nil {
			return nil
		}
		if nw.owns(n) {
			return &nodes[n.ID]
		}
		if pos == nil {
			pos = make(map[*Node]int, len(nw.Nodes))
			for i, m := range nw.Nodes {
				pos[m] = i
			}
		}
		if i, ok := pos[n]; ok {
			return &nodes[i]
		}
		return nil
	}
	for i, n := range nw.Nodes {
		if len(n.Fanins) == 0 {
			continue
		}
		fs := fanins[:len(n.Fanins):len(n.Fanins)]
		fanins = fanins[len(n.Fanins):]
		for j, f := range n.Fanins {
			fs[j] = Fanin{Node: copyOf(f.Node), Invert: f.Invert}
		}
		nodes[i].Fanins = fs
	}
	for _, o := range nw.Outputs {
		cp.Outputs = append(cp.Outputs, Output{Name: o.Name, Node: copyOf(o.Node), Invert: o.Invert})
	}
	for _, l := range nw.Latches {
		cp.Latches = append(cp.Latches, Latch{Q: l.Q, D: copyOf(l.D), DInv: l.DInv, Init: l.Init})
	}
	return cp
}
