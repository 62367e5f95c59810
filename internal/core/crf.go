package core

import (
	"fmt"
	"sort"
	"strconv"

	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// Bin-packing decomposition — the successor algorithm's idea
// (Chortle-crf, DAC'91) retrofitted as an alternative strategy: instead
// of exhaustively searching all decompositions and divisions (3^f per
// node), treat each fanin's root LUT as an item whose size is its pin
// count and first-fit-decreasing pack the items into K-input bins,
// emitting full bins as LUTs and repacking their outputs until one bin
// remains. Quality is near the exhaustive search on typical fanin
// distributions, with no fanin bound and no node splitting.

// Strategy selects the per-node decomposition search.
type Strategy uint8

const (
	// StrategyExhaustive is the paper's algorithm: optimal per tree.
	StrategyExhaustive Strategy = iota
	// StrategyBinPack is the Chortle-crf-style first-fit-decreasing
	// packing: much faster on wide nodes, not guaranteed optimal.
	StrategyBinPack
)

// crfExpr is logic accumulated for a not-yet-emitted LUT: an AND/OR
// tree over named signals.
type crfExpr struct {
	leaf   bool
	sig    string
	invert bool
	op     network.Op
	kids   []*crfExpr
}

func crfEval(e *crfExpr, val map[string]bool) bool {
	if e.leaf {
		return val[e.sig] != e.invert
	}
	var v bool
	if e.op == network.OpAnd {
		v = true
		for _, k := range e.kids {
			if !crfEval(k, val) {
				v = false
				break
			}
		}
	} else {
		for _, k := range e.kids {
			if crfEval(k, val) {
				v = true
				break
			}
		}
	}
	return v != e.invert
}

// crfItem is a packable unit: an expression plus the distinct signals it
// consumes.
type crfItem struct {
	expr    *crfExpr
	inputs  []string
	arrival int32 // max arrival of inputs (depth bookkeeping)
	// nodes lists the gate nodes whose function this item fully absorbs
	// (populated only when provenance recording is on). Whichever LUT
	// finally emits the item covers them.
	nodes []string
}

func (it crfItem) size() int { return len(it.inputs) }

// crfMapping is a subtree's not-yet-emitted root: op over packed items.
type crfMapping struct {
	item crfItem
}

// crfState runs the strategy over one tree.
type crfState struct {
	m    *mapper
	cost int32
}

// mapNode maps the subtree at n, emitting all LUTs except the root's.
func (cs *crfState) mapNode(n *network.Node) (crfMapping, error) {
	items := make([]crfItem, 0, len(n.Fanins))
	for _, e := range n.Fanins {
		if cs.m.f.IsLeafEdge(e.Node) {
			sig, arrv, err := cs.leafSignal(e.Node)
			if err != nil {
				return crfMapping{}, err
			}
			items = append(items, crfItem{
				expr:    &crfExpr{leaf: true, sig: sig, invert: e.Invert},
				inputs:  []string{sig},
				arrival: arrv,
			})
			continue
		}
		sub, err := cs.mapNode(e.Node)
		if err != nil {
			return crfMapping{}, err
		}
		it := sub.item
		if cs.m.opts.Provenance {
			// The child node's function is now complete inside this item.
			it.nodes = append(it.nodes, e.Node.Name)
		}
		if e.Invert {
			// Wrap so the inversion rides into whichever LUT absorbs
			// it (a single-child AND is an identity, so this is safe
			// for any expression shape).
			it.expr = &crfExpr{op: network.OpAnd, kids: []*crfExpr{it.expr}, invert: true}
		}
		items = append(items, it)
	}
	return cs.pack(n.Op, n.Name, items)
}

// pack runs first-fit-decreasing rounds until everything fits one bin.
// owner names the node being packed, for attributing under-filled bins.
func (cs *crfState) pack(op network.Op, owner string, items []crfItem) (crfMapping, error) {
	K := cs.m.opts.K
	for {
		total := 0
		for _, it := range items {
			total += it.size()
		}
		if total <= K {
			// Everything fits one root LUT (left to the caller to emit
			// or merge further up).
			return crfMapping{item: cs.combine(op, items)}, nil
		}
		// First-fit decreasing; stable order for determinism.
		sort.SliceStable(items, func(i, j int) bool { return items[i].size() > items[j].size() })
		type bin struct {
			items []crfItem
			used  int
		}
		var bins []*bin
		for _, it := range items {
			placed := false
			for _, b := range bins {
				if b.used+it.size() <= K {
					b.items = append(b.items, it)
					b.used += it.size()
					placed = true
					break
				}
			}
			if !placed {
				if it.size() > K {
					return crfMapping{}, fmt.Errorf("core: bin packing item exceeds K=%d", K)
				}
				bins = append(bins, &bin{items: []crfItem{it}, used: it.size()})
			}
		}
		// Full bins become LUTs; partial bins pass through as combined
		// (un-emitted) items so later rounds can keep filling them —
		// emitting an under-filled LUT early is the waste a packer must
		// avoid. If nothing was emitted and nothing merged, every item
		// is too wide to pair: emit them all so their size-1 outputs
		// unblock the next round.
		progressed := false
		next := make([]crfItem, 0, len(bins))
		var emit []crfItem
		for _, b := range bins {
			switch {
			case b.used == K:
				emit = append(emit, cs.combine(op, b.items))
				progressed = true
			case len(b.items) > 1:
				next = append(next, cs.combine(op, b.items))
				progressed = true
			default:
				next = append(next, b.items[0])
			}
		}
		if !progressed {
			emit = append(emit, next...)
			next = next[:0]
		}
		for _, it := range emit {
			sig, err := cs.emitItem(op, it, owner)
			if err != nil {
				return crfMapping{}, err
			}
			next = append(next, crfItem{
				expr:    &crfExpr{leaf: true, sig: sig},
				inputs:  []string{sig},
				arrival: it.arrival + 1,
			})
		}
		items = next
	}
}

// combine merges items into one op-expression, deduplicating inputs.
func (cs *crfState) combine(op network.Op, items []crfItem) crfItem {
	var kids []*crfExpr
	var inputs []string
	seen := map[string]bool{}
	var arrv int32
	for _, it := range items {
		// Flatten same-op children for cleaner expressions.
		if !it.expr.leaf && it.expr.op == op && !it.expr.invert {
			kids = append(kids, it.expr.kids...)
		} else {
			kids = append(kids, it.expr)
		}
		for _, in := range it.inputs {
			if !seen[in] {
				seen[in] = true
				inputs = append(inputs, in)
			}
		}
		if it.arrival > arrv {
			arrv = it.arrival
		}
	}
	var nodes []string
	for _, it := range items {
		nodes = append(nodes, it.nodes...)
	}
	return crfItem{expr: &crfExpr{op: op, kids: kids}, inputs: inputs, arrival: arrv, nodes: nodes}
}

// emitItem materializes an item as a LUT and returns its signal. partOf
// attributes an under-filled bin (one covering no complete node) to the
// node whose packing produced it.
func (cs *crfState) emitItem(op network.Op, it crfItem, partOf string) (string, error) {
	if len(it.inputs) > cs.m.opts.K {
		return "", fmt.Errorf("core: bin emitted with %d inputs (K=%d)", len(it.inputs), cs.m.opts.K)
	}
	table := truth.FromFunc(len(it.inputs), func(assign uint) bool {
		val := make(map[string]bool, len(it.inputs))
		for i, in := range it.inputs {
			val[in] = assign>>uint(i)&1 == 1
		}
		return crfEval(it.expr, val)
	})
	name := cs.m.fresh("crf")
	cs.m.ckt.AddLUT(name, it.inputs, table)
	cs.recordCRFProv(name, it, partOf)
	cs.cost++
	return name, nil
}

// recordCRFProv writes the provenance record of one bin-packed LUT.
func (cs *crfState) recordCRFProv(name string, it crfItem, partOf string) {
	m := cs.m
	if !m.opts.Provenance {
		return
	}
	if len(it.nodes) > 0 {
		partOf = ""
	}
	p := &lut.Provenance{
		Tree:      m.provTree,
		Origin:    m.provOrigin,
		Covers:    it.nodes,
		PartOf:    partOf,
		Shape:     "pack(" + strconv.Itoa(len(it.inputs)) + ")",
		FaninLUTs: m.faninLUTs(it.inputs),
		WorkUnits: m.provUnits,
	}
	m.ckt.SetProvenance(name, p)
}

func (cs *crfState) leafSignal(n *network.Node) (string, int32, error) {
	if n.IsInput() {
		return n.Name, 0, nil
	}
	r := cs.m.roots[n.ID]
	if !r.ok {
		return "", 0, fmt.Errorf("core: tree root %q not yet realized", n.Name)
	}
	return r.sig, r.arr, nil
}

// realizeTreeCRF maps one tree with the bin-packing strategy.
func (m *mapper) realizeTreeCRF(root *network.Node) (int32, error) {
	cs := &crfState{m: m}
	mp, err := cs.mapNode(root)
	if err != nil {
		return 0, err
	}
	// Emit the tree's root LUT under the root's name.
	name := m.rootName(root)
	table := truth.FromFunc(len(mp.item.inputs), func(assign uint) bool {
		val := make(map[string]bool, len(mp.item.inputs))
		for i, in := range mp.item.inputs {
			val[in] = assign>>uint(i)&1 == 1
		}
		return crfEval(mp.item.expr, val)
	})
	m.ckt.AddLUT(name, mp.item.inputs, table)
	if m.opts.Provenance {
		it := mp.item
		it.nodes = append(it.nodes, root.Name)
		cs.recordCRFProv(name, it, "")
	}
	cs.cost++
	m.realize(root, name, mp.item.arrival+1)
	return cs.cost, nil
}
