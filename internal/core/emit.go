package core

import (
	"fmt"
	"math/bits"
	"strconv"

	"chortle/internal/cerrs"
	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/slab"
	"chortle/internal/truth"
)

// Circuit reconstruction. Walking, from the root state, how the pivot
// fanin of each visited (subset, utilization) cell is placed rebuilds
// the chosen cover: the area DP's choices are derived from its tables
// (choiceAt), the depth DP's are recorded. Each emitted LUT's truth
// table is computed bitwise while the walk collects its inputs: pin i
// contributes the projection column of input i, an inverted edge
// complements its group's column — which is how Chortle gets inverters
// for free — and each node ANDs or ORs its groups' columns together.

// projection[i] is the 64-row truth column of input i: bit m of it is
// bit i of minterm m. A table over n <= 6 inputs is the low 2^n bits of
// a column built from the first n projections.
var projection = [truth.MaxVars]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// lutPins gathers the distinct input signals of the LUT called name.
// The DP grants a LUT at most K <= truth.MaxVars pins, so a fixed array
// holds them (AddLUT copies the list).
type lutPins struct {
	name string
	k    int
	sig  [truth.MaxVars]string
	n    int
}

// add interns sig and returns the truth column of its pin. Repeated
// signals share a pin (the DP charges one pin per leaf edge, as the
// paper does; the physical LUT can share the pin). A signal that would
// be pin k+1 is refused before it indexes a projection.
func (p *lutPins) add(sig string) (uint64, error) {
	for i := 0; i < p.n; i++ {
		if p.sig[i] == sig {
			return projection[i], nil
		}
	}
	if p.n >= p.k {
		return 0, fmt.Errorf("core: LUT %q collected %d inputs for K=%d", p.name, p.n+1, p.k)
	}
	p.sig[p.n] = sig
	p.n++
	return projection[p.n-1], nil
}

// mapper carries the reconstruction state across trees.
type mapper struct {
	opts Options
	nw   *network.Network
	f    *forest.Forest
	ckt  *lut.Circuit
	// roots holds, by node ID, the realized signal of every mapped tree
	// root and, for the bin-packing and depth paths, its arrival.
	roots []realized
	seq   int

	// isInput is the set of circuit input names, which fresh names and
	// root LUT names must avoid.
	isInput map[string]bool
	// pending is the name rootName gave the tree root being realized.
	// Its LUT is added after its children's, so fresh must skip it.
	pending string
	// names holds every name fresh made.
	names slab.Names

	// recorded maps every node of the depth-DP tree being realized to
	// its recorded choice table; nil derives the area DP's choices.
	recorded map[*nodeDP][]gChoice

	// Per-tree provenance context (provenance.go), meaningful only when
	// opts.Provenance is set: the tree being realized, how it was
	// realized, and its solve's metered work units.
	provTree   string
	provOrigin lut.Origin
	provUnits  int64
}

// realized is a mapped tree root: the signal that carries it and its
// arrival level in LUTs.
type realized struct {
	sig string
	arr int32
	ok  bool
}

// realize records root's signal and arrival.
func (m *mapper) realize(root *network.Node, sig string, arr int32) {
	m.roots[root.ID] = realized{sig: sig, arr: arr, ok: true}
}

// newMapper starts the reconstruction of the forest f of nw into an
// empty circuit holding nw's inputs.
func newMapper(nw *network.Network, f *forest.Forest, opts Options) *mapper {
	m := &mapper{
		opts:    opts,
		nw:      nw,
		f:       f,
		ckt:     lut.New(nw.Name, opts.K),
		roots:   make([]realized, len(nw.Nodes)),
		isInput: make(map[string]bool, len(nw.Inputs)),
	}
	for _, in := range nw.Inputs {
		m.ckt.AddInput(in.Name)
		m.isInput[in.Name] = true
	}
	return m
}

// fresh returns the next unused name of the form base$l<seq>.
func (m *mapper) fresh(base string) string {
	for {
		m.seq++
		if name := m.names.Numbered(base, "$l", m.seq); m.ckt.Find(name) == nil && !m.isInput[name] && name != m.pending {
			return name
		}
	}
}

// rootName is the name of a tree's root LUT: the root's own name, or a
// fresh one when an earlier LUT or a circuit input already holds it.
func (m *mapper) rootName(root *network.Node) string {
	m.pending = root.Name
	if m.ckt.Find(root.Name) != nil || m.isInput[root.Name] {
		m.pending = m.fresh(root.Name)
	}
	return m.pending
}

// leafSignal resolves a leaf edge's node to its finished signal: the PI
// name, or the signal of an already-mapped tree root.
func (m *mapper) leafSignal(n *network.Node) (string, error) {
	if n.IsInput() {
		return n.Name, nil
	}
	r := m.roots[n.ID]
	if !r.ok {
		return "", fmt.Errorf("core: tree root %q not yet realized", n.Name)
	}
	return r.sig, nil
}

// signalOf realizes fanin fr as a finished signal: leaf edges resolve to
// the PI or previously mapped tree root; internal children emit their
// best mapping rooted at a fresh LUT.
func (m *mapper) signalOf(fr faninRef) (string, error) {
	if fr.child == nil {
		return m.leafSignal(fr.edge.Node)
	}
	c := fr.child
	return m.emitLUT(c, c.full, c.bestU, m.fresh(c.node.Name), m.provFor(c))
}

// choiceAt is the placement of the pivot fanin of s in dp's cell (s, u).
func (m *mapper) choiceAt(dp *nodeDP, s uint32, u int) gChoice {
	if m.recorded != nil {
		return m.recorded[dp][int(s)*int(dp.stride)+u]
	}
	return dp.choiceAt(s, u, !m.opts.DisableDecomposition)
}

// collectGroups walks the DP choices for (dp, s, u), returning the truth
// column of op(dp.node) over the groups it places and adding the
// signals they consume to pins. pf (nil when provenance is off)
// accumulates the covered nodes and shape tokens of the LUT being
// collected.
func (m *mapper) collectGroups(dp *nodeDP, s uint32, u int, pins *lutPins, pf *provFrame) (uint64, error) {
	and := dp.node.Op == network.OpAnd
	var col uint64
	if and {
		col = ^uint64(0)
	}
	for s != 0 {
		if u < 1 {
			return 0, fmt.Errorf("core: utilization underflow reconstructing %q", dp.node.Name)
		}
		var grp uint64
		ch := m.choiceAt(dp, s, u)
		switch ch.kind {
		case choiceSingleton:
			pivot := bits.TrailingZeros32(s)
			fr := dp.fanins[pivot]
			if ch.v == 1 {
				sig, err := m.signalOf(fr)
				if err != nil {
					return 0, err
				}
				pf.token("pin")
				if grp, err = pins.add(sig); err != nil {
					return 0, err
				}
			} else {
				c := fr.child
				pf.open("merge")
				pf.cover(c.node.Name)
				var err error
				if grp, err = m.collectGroups(c, c.full, int(ch.v), pins, pf); err != nil {
					return 0, err
				}
				pf.close()
			}
			if fr.edge.Invert {
				grp = ^grp
			}
			s &^= 1 << uint(pivot)
			u -= int(ch.v)
		case choiceIntermediate:
			sig, err := m.emitLUT(dp, ch.d, int(dp.mmBestU[ch.d]), m.fresh(dp.node.Name), m.provGroupFor(dp))
			if err != nil {
				return 0, err
			}
			if pf != nil {
				pf.token("grp" + strconv.Itoa(bits.OnesCount32(ch.d)))
			}
			if grp, err = pins.add(sig); err != nil {
				return 0, err
			}
			s &^= ch.d
			u--
		default:
			return 0, fmt.Errorf("core: no DP choice for %q subset %b utilization %d", dp.node.Name, s, u)
		}
		if and {
			col &= grp
		} else {
			col |= grp
		}
	}
	if u != 0 {
		return 0, fmt.Errorf("core: utilization leftover %d reconstructing %q", u, dp.node.Name)
	}
	return col, nil
}

// emitLUT materializes one lookup table computing op(dp.node) over the
// fanin subset s with utilization u, returning its signal name. pf, when
// non-nil, becomes the LUT's provenance record.
func (m *mapper) emitLUT(dp *nodeDP, s uint32, u int, name string, pf *provFrame) (string, error) {
	pins := lutPins{name: name, k: m.opts.K}
	col, err := m.collectGroups(dp, s, u, &pins, pf)
	if err != nil {
		return "", err
	}
	inputs := pins.sig[:pins.n]
	table := truth.New(pins.n, col)
	m.ckt.AddLUT(name, inputs, table)
	m.recordProv(pf, name, inputs, dp.node.Op.String(), u)
	return name, nil
}

// realizeTreeFromDP reconstructs a tree's circuit from a computed,
// mappable DP.
func (m *mapper) realizeTreeFromDP(root *network.Node, dp *nodeDP) (int32, error) {
	sig, err := m.emitLUT(dp, dp.full, dp.bestU, m.rootName(root), m.provFor(dp))
	if err != nil {
		return 0, err
	}
	m.realize(root, sig, 0)
	return dp.bestCost, nil
}

// errDegraded marks a tree whose exhaustive solve ran out of budget;
// Map catches it (via cerrs.ErrBudgetExhausted) and remaps the tree
// with the bin-packing strategy.
func errDegraded(name string) error {
	return fmt.Errorf("core: tree %q: %w", name, cerrs.ErrBudgetExhausted)
}

// realizeTreeMemo maps one tree through the shape cache that
// solveShapes filled: e is the tree's entry in it. A shape hit reuses
// the cached DP tables, rebound to this tree's nodes, and every tree is
// reconstructed from its DP. An error wrapping cerrs.ErrBudgetExhausted
// means the shape's solve ran out of budget and the caller should
// degrade the tree; any other error aborts the mapping.
func (m *mapper) realizeTreeMemo(root *network.Node, e *shapeEntry, mc *mapCtx) (int32, error) {
	if e == nil {
		return 0, fmt.Errorf("core: tree %q has no solved shape", root.Name)
	}
	if e.degraded {
		return 0, errDegraded(root.Name)
	}
	if e.dp.bestCost >= infinity {
		return 0, errUnmappable(root.Name, m.opts.K)
	}
	dp := e.dp
	if e.frozen || e.rep != root {
		// A memo hit did no search of its own; its records carry the
		// reuse origin and zero work units. A cross-run hit's tables are
		// a frozen copy with no live node or edge pointers, so even this
		// run's first instance of the shape rebinds.
		mc.tr.memoHit(root.Name, e.dp.bestCost)
		dp = rebindDP(mc.seqArena, e.dp, root)
		m.setProvTree(root.Name, lut.OriginMemo, 0)
	} else {
		m.setProvTree(root.Name, lut.OriginFresh, e.units)
	}
	return m.realizeTreeFromDP(root, dp)
}
