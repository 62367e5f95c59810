package cut

import (
	"fmt"

	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/slab"
	"chortle/internal/truth"
)

// binarize bounds every gate's fanin at two by expanding wider gates
// into balanced trees of two-input gates of the same operation,
// returning the number of gates added. AND and OR are associative and
// edge polarities ride on the original leaf edges, so the function is
// preserved; the original node keeps its identity (outputs and latches
// still point at it) and becomes the tree's root. Cut enumeration
// needs the bound — a fanin-F gate has no non-trivial K-feasible cut
// for K < F — and the finer subject graph is what exposes reconvergent
// sharing to the cut merger.
//
// The i-th added gate is named <gate>$b<i>, or, when an input or gate
// already has that name, the first free <gate>$b<i>$<j> for j = 1, 2, ...
// A fanin-F gate adds F-2 gates, so the network is grown by exactly
// that many before they are added; their names and fanin pairs are
// carved from chunks (internal/slab).
func binarize(nw *network.Network) int {
	nodes := nw.Nodes // the gates added below are not revisited
	adds := 0
	for _, n := range nodes {
		if !n.IsInput() && len(n.Fanins) > 2 {
			adds += len(n.Fanins) - 2
		}
	}
	nw.Grow(adds)
	var (
		names       slab.Names
		pairs       slab.Slab[network.Fanin]
		level, next []network.Fanin
	)
	added := 0
	for _, n := range nodes {
		if n.IsInput() || len(n.Fanins) <= 2 {
			continue
		}
		level = append(level[:0], n.Fanins...)
		for len(level) > 2 {
			next = next[:0]
			for i := 0; i+1 < len(level); i += 2 {
				name := names.Numbered(n.Name, "$b", added)
				for j, stem := 1, name; nw.Find(name) != nil; j++ {
					name = names.Numbered(stem, "$", j)
				}
				g := nw.AddGate(name, n.Op, pairs.Copy(level[i:i+2])...)
				added++
				next = append(next, network.Fanin{Node: g})
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level, next = next, level
		}
		n.Fanins = pairs.Copy(level)
	}
	nw.Reindex()
	return added
}

// emit turns the selected cover into a LUT circuit: one lookup table
// per selected gate, named after the gate, programmed with the truth
// table of the gate's cone over its best cut's leaves.
func (m *mapper) emit() (*lut.Circuit, error) {
	ckt := lut.New(m.nw.Name, m.opts.K)
	ckt.Grow(len(m.selected))
	for _, in := range m.nw.Inputs {
		ckt.AddInput(in.Name)
	}
	var owner []bool
	if m.opts.Provenance {
		owner = make([]bool, len(m.nw.Nodes))
	}
	for _, v := range m.selected {
		c := m.best(v.ID)
		cone, err := m.cone(v, c)
		if err != nil {
			return nil, err
		}
		table, err := m.coneTable(cone, c)
		if err != nil {
			return nil, err
		}
		inputs := m.pinBuf[:0]
		for _, l := range c.leafIDs() {
			inputs = append(inputs, m.nw.Nodes[l].Name)
		}
		m.pinBuf = inputs
		ckt.AddLUT(v.Name, inputs, table)
		if m.opts.Provenance {
			m.recordProvenance(ckt, v, c, cone, owner)
		}
	}
	for _, o := range m.nw.Outputs {
		ckt.MarkOutput(o.Name, o.Node.Name, o.Invert)
	}
	for _, l := range m.nw.Latches {
		ckt.AddLatch(l.Q, l.D.Name, l.DInv, l.Init)
	}
	return ckt, nil
}

// cone returns the gates of v's cone over cut c — every node on a path
// from the leaves to v, leaves excluded, v included — in topological
// order. A path that escapes to a primary input without crossing a
// leaf would mean c is not a cut of v; that is an internal invariant
// violation and reported as an error rather than mis-emitted. The
// returned slice is scratch, valid until the next call.
func (m *mapper) cone(v *network.Node, c *cutSet) ([]*network.Node, error) {
	m.gen++
	for _, l := range c.leafIDs() {
		m.stamp[l] = m.gen
	}
	m.coneBuf = m.coneBuf[:0]
	if err := m.walkCone(v); err != nil {
		return nil, err
	}
	if len(m.coneBuf) == 0 {
		return nil, fmt.Errorf("cut: internal: trivial cut selected at %q", v.Name)
	}
	return m.coneBuf, nil
}

// walkCone appends the not-yet-stamped gates under root to coneBuf in
// post-order; leaves arrive pre-stamped and stop the walk. It keeps an
// explicit stack of (gate, next fanin) frames rather than recursing, so
// a cone as deep as a long chain cannot overflow the goroutine stack.
func (m *mapper) walkCone(root *network.Node) error {
	m.coneStack = m.coneStack[:0]
	if err := m.enterCone(root, root); err != nil {
		return err
	}
	for len(m.coneStack) > 0 {
		top := &m.coneStack[len(m.coneStack)-1]
		if top.next < len(top.n.Fanins) {
			f := top.n.Fanins[top.next].Node
			top.next++
			if err := m.enterCone(root, f); err != nil {
				return err
			}
			continue
		}
		m.coneBuf = append(m.coneBuf, top.n)
		m.coneStack = m.coneStack[:len(m.coneStack)-1]
	}
	return nil
}

// enterCone stamps n and pushes its frame unless it is already stamped.
// Reaching a primary input means the leaves are not a cut of root.
func (m *mapper) enterCone(root, n *network.Node) error {
	if m.stamp[n.ID] == m.gen {
		return nil
	}
	if n.IsInput() {
		return fmt.Errorf("cut: internal: leaves of %q miss input %q", root.Name, n.Name)
	}
	m.stamp[n.ID] = m.gen
	m.coneStack = append(m.coneStack, coneFrame{n: n})
	return nil
}

// coneTable computes the root's truth table over the cut leaves:
// leaf i is table variable i, cone gates combine their fanin tables
// under the edge polarities. A fresh stamp marks which tabs entries
// this pass has written.
func (m *mapper) coneTable(cone []*network.Node, c *cutSet) (truth.Table, error) {
	m.gen++
	for i, l := range c.leafIDs() {
		m.tabs[l] = truth.Var(i, int(c.n))
		m.stamp[l] = m.gen
	}
	for _, g := range cone {
		var t truth.Table
		for j, f := range g.Fanins {
			if m.stamp[f.Node.ID] != m.gen {
				return truth.Table{}, fmt.Errorf("cut: internal: cone of %q not topological at %q", cone[len(cone)-1].Name, f.Node.Name)
			}
			ft := m.tabs[f.Node.ID]
			if f.Invert {
				ft = ft.Not()
			}
			switch {
			case j == 0:
				t = ft
			case g.Op == network.OpAnd:
				t = t.And(ft)
			default:
				t = t.Or(ft)
			}
		}
		m.tabs[g.ID] = t
		m.stamp[g.ID] = m.gen
	}
	return m.tabs[cone[len(cone)-1].ID], nil
}

// recordProvenance attaches the LUT's ancestry. Cut cones overlap
// where the cover duplicates shared logic, so Covers is a first-owner
// partition: each cone gate is credited to the first selected LUT
// (topological order) whose cone contains it, which keeps the records
// an exact partition of the prepared network's gates while the full
// overlapping cone stays recoverable from the subject graph.
func (m *mapper) recordProvenance(ckt *lut.Circuit, v *network.Node, c *cutSet, cone []*network.Node, owner []bool) {
	covers := make([]string, 0, len(cone))
	for _, g := range cone {
		if owner[g.ID] {
			continue
		}
		owner[g.ID] = true
		covers = append(covers, g.Name)
	}
	var faninLUTs []string
	for _, l := range c.leafIDs() {
		if !m.nw.Nodes[l].IsInput() {
			faninLUTs = append(faninLUTs, m.nw.Nodes[l].Name)
		}
	}
	ckt.SetProvenance(v.Name, &lut.Provenance{
		Tree:      v.Name,
		Origin:    lut.OriginCut,
		Covers:    covers,
		PartOf:    partOf(covers, v),
		Shape:     fmt.Sprintf("cut(%d)", c.n),
		FaninLUTs: faninLUTs,
	})
}

// partOf names the root gate for a LUT whose whole cone was already
// credited to earlier LUTs (pure duplication), so the record still
// says what the LUT computes.
func partOf(covers []string, v *network.Node) string {
	if len(covers) > 0 {
		return ""
	}
	return v.Name
}
