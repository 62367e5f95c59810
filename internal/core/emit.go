package core

import (
	"fmt"
	"math/bits"
	"strconv"

	"chortle/internal/cerrs"
	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// Circuit reconstruction. The DP records, for every (subset, utilization)
// state, how the pivot fanin was placed; walking those choices rebuilds
// the chosen cover. Each emitted LUT's truth table is evaluated from the
// expression tree of the network logic it absorbs — including every edge
// inversion, which is how Chortle gets inverters for free.

// exprNode is the function of one LUT over its collected input signals.
type exprNode struct {
	leaf     bool
	inputIdx int // leaf: index into the LUT's input list
	invert   bool
	op       network.Op // internal: AND/OR over kids
	kids     []*exprNode
}

func evalExpr(e *exprNode, assign uint) bool {
	if e.leaf {
		return (assign>>uint(e.inputIdx)&1 == 1) != e.invert
	}
	var v bool
	if e.op == network.OpAnd {
		v = true
		for _, k := range e.kids {
			if !evalExpr(k, assign) {
				v = false
				break
			}
		}
	} else {
		for _, k := range e.kids {
			if evalExpr(k, assign) {
				v = true
				break
			}
		}
	}
	return v != e.invert
}

// mapper carries the reconstruction state across trees.
type mapper struct {
	opts Options
	nw   *network.Network
	f    *forest.Forest
	ckt  *lut.Circuit
	sig  map[*network.Node]string // realized signal of PIs and tree roots
	seq  int

	// rec, when non-nil, passively records the emission of the current
	// tree as a template for structurally identical trees (template.go).
	rec *emitRecorder

	// Per-tree provenance context (provenance.go), meaningful only when
	// opts.Provenance is set: the tree being realized, how it was
	// realized, and its solve's metered work units.
	provTree   string
	provOrigin lut.Origin
	provUnits  int64
}

func (m *mapper) fresh(base string) string {
	for {
		m.seq++
		name := fmt.Sprintf("%s$l%d", base, m.seq)
		if m.ckt.Find(name) == nil && !m.cktHasInput(name) {
			return name
		}
	}
}

// freshFor draws a fresh name seeded by dp's node, noting the draw for
// the template recorder so replays can reproduce the exact sequence.
func (m *mapper) freshFor(dp *nodeDP) string {
	name := m.fresh(dp.node.Name)
	if m.rec != nil {
		m.rec.noteFresh(name, dp.nodeIdx)
	}
	return name
}

func (m *mapper) cktHasInput(name string) bool {
	for _, in := range m.ckt.Inputs {
		if in == name {
			return true
		}
	}
	return false
}

// addInput interns a signal in the LUT's input list, deduplicating
// repeated signals (the DP charges one pin per leaf edge, as the paper
// does; the physical LUT can share the pin).
func addInput(inputs *[]string, sig string) int {
	for i, s := range *inputs {
		if s == sig {
			return i
		}
	}
	*inputs = append(*inputs, sig)
	return len(*inputs) - 1
}

// leafSignal resolves a leaf edge's node to its finished signal: the PI
// name, or the signal of an already-mapped tree root.
func (m *mapper) leafSignal(n *network.Node) (string, error) {
	if n.IsInput() {
		return n.Name, nil
	}
	sig, ok := m.sig[n]
	if !ok {
		return "", fmt.Errorf("core: tree root %q not yet realized", n.Name)
	}
	return sig, nil
}

// signalOf realizes fanin fr as a finished signal: leaf edges resolve to
// the PI or previously mapped tree root; internal children emit their
// best mapping rooted at a fresh LUT.
func (m *mapper) signalOf(fr faninRef) (string, error) {
	if fr.child == nil {
		sig, err := m.leafSignal(fr.edge.Node)
		if err != nil {
			return "", err
		}
		if m.rec != nil {
			m.rec.noteLeaf(sig, fr.leafIdx)
		}
		return sig, nil
	}
	c := fr.child
	return m.emitLUT(c, c.full, c.bestU, m.freshFor(c), m.provFor(c))
}

// collectGroups walks the DP choices for (dp, s, u), returning the
// group expressions of the covering LUT and extending inputs with the
// signals it consumes. pf (nil when provenance is off) accumulates the
// covered nodes and shape tokens of the LUT being collected.
func (m *mapper) collectGroups(dp *nodeDP, s uint32, u int, inputs *[]string, pf *provFrame) ([]*exprNode, error) {
	var groups []*exprNode
	for s != 0 {
		if u < 1 {
			return nil, fmt.Errorf("core: utilization underflow reconstructing %q", dp.node.Name)
		}
		ch := dp.choiceAt(s, u)
		switch ch.kind {
		case choiceSingleton:
			pivot := bits.TrailingZeros32(s)
			fr := dp.fanins[pivot]
			if ch.v == 1 {
				sig, err := m.signalOf(fr)
				if err != nil {
					return nil, err
				}
				pf.token("pin")
				groups = append(groups, &exprNode{leaf: true, inputIdx: addInput(inputs, sig), invert: fr.edge.Invert})
			} else {
				c := fr.child
				pf.open("merge")
				pf.cover(c.node.Name, c.nodeIdx)
				kids, err := m.collectGroups(c, c.full, int(ch.v), inputs, pf)
				if err != nil {
					return nil, err
				}
				pf.close()
				groups = append(groups, &exprNode{op: c.node.Op, kids: kids, invert: fr.edge.Invert})
			}
			s &^= 1 << uint(pivot)
			u -= int(ch.v)
		case choiceIntermediate:
			sig, err := m.emitLUT(dp, ch.d, int(dp.mmBestU[ch.d]), m.freshFor(dp), m.provGroupFor(dp))
			if err != nil {
				return nil, err
			}
			if pf != nil {
				pf.token("grp" + strconv.Itoa(bits.OnesCount32(ch.d)))
			}
			groups = append(groups, &exprNode{leaf: true, inputIdx: addInput(inputs, sig)})
			s &^= ch.d
			u--
		default:
			return nil, fmt.Errorf("core: no DP choice recorded for %q subset %b utilization %d", dp.node.Name, s, u)
		}
	}
	if u != 0 {
		return nil, fmt.Errorf("core: utilization leftover %d reconstructing %q", u, dp.node.Name)
	}
	return groups, nil
}

// emitLUT materializes one lookup table computing op(dp.node) over the
// fanin subset s with utilization u, returning its signal name. pf, when
// non-nil, becomes the LUT's provenance record.
func (m *mapper) emitLUT(dp *nodeDP, s uint32, u int, name string, pf *provFrame) (string, error) {
	var inputs []string
	groups, err := m.collectGroups(dp, s, u, &inputs, pf)
	if err != nil {
		return "", err
	}
	root := &exprNode{op: dp.node.Op, kids: groups}
	if len(inputs) > m.opts.K {
		return "", fmt.Errorf("core: LUT %q collected %d inputs for K=%d", name, len(inputs), m.opts.K)
	}
	table := truth.FromFunc(len(inputs), func(assign uint) bool { return evalExpr(root, assign) })
	m.ckt.AddLUT(name, inputs, table)
	if m.rec != nil {
		m.rec.noteLUT(name, inputs, table)
	}
	m.recordProv(pf, name, inputs, dp.node.Op.String(), u)
	return name, nil
}

// realizeTreeFromDP reconstructs a tree's circuit from a computed,
// mappable DP.
func (m *mapper) realizeTreeFromDP(root *network.Node, dp *nodeDP) (int32, error) {
	name := root.Name
	if m.ckt.Find(name) != nil || m.cktHasInput(name) {
		name = m.fresh(root.Name)
	}
	sig, err := m.emitLUT(dp, dp.full, dp.bestU, name, m.provFor(dp))
	if err != nil {
		return 0, err
	}
	m.sig[root] = sig
	return dp.bestCost, nil
}

// errDegraded marks a tree whose exhaustive solve ran out of budget;
// Map catches it (via cerrs.ErrBudgetExhausted) and remaps the tree
// with the bin-packing strategy.
func errDegraded(name string) error {
	return fmt.Errorf("core: tree %q: %w", name, cerrs.ErrBudgetExhausted)
}

// realizeTreeMemo maps one tree through the shape cache that
// solveShapes filled. A shape hit reuses the cached DP tables (rebound
// to this tree's nodes); a (shape, leaf-pattern) hit replays the
// recorded emission outright. Most shapes never repeat, so templates are
// recorded only from a shape's second instance on, once repetition is
// proven. (A shape seen exactly twice reconstructs twice; from the third
// instance on it replays.) An error wrapping cerrs.ErrBudgetExhausted
// means the shape's solve ran out of budget and the caller should
// degrade the tree; any other error aborts the mapping.
func (m *mapper) realizeTreeMemo(root *network.Node, mc *mapCtx) (int32, error) {
	e := mc.shapes[root]
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
		dp = rebindDP(mc.seqArena, e.dp, m.f, root)
		m.setProvTree(root.Name, lut.OriginMemo, 0)
	} else {
		m.setProvTree(root.Name, lut.OriginFresh, e.units)
	}
	if !e.seen {
		e.seen = true
		return m.realizeTreeFromDP(root, dp)
	}
	names, leafSigs, err := m.treeNamesAndLeafSigs(root)
	if err != nil {
		return 0, err
	}
	pattern := patternOf(leafSigs)
	if t := e.templateFor(pattern); t != nil {
		m.setProvTree(root.Name, lut.OriginReplay, 0)
		if _, err := m.replayTemplate(root, t, names, leafSigs); err != nil {
			return 0, err
		}
		mc.tr.templateReplay(root.Name)
		return e.dp.bestCost, nil
	}
	m.rec = newEmitRecorder()
	cost, err := m.realizeTreeFromDP(root, dp)
	rec := m.rec
	m.rec = nil
	if err != nil {
		return 0, err
	}
	if t := rec.template(); t != nil {
		e.putTemplate(pattern, t)
	}
	return cost, nil
}
