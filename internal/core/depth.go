package core

import (
	"fmt"
	"math/bits"

	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/network"
)

// Depth-oriented mapping — the direction the Chortle line took next
// (Chortle-d, FPGA'91, and ultimately FlowMap): minimize the number of
// LUT levels on the longest path, breaking ties by area. The same
// utilization-division/decomposition search runs with a lexicographic
// (arrival, cost) objective instead of cost alone:
//
//   - the arrival of a signal is its LUT level (primary inputs 0);
//   - a root LUT's arrival is 1 + max over its input signals;
//   - merging a child's root LUT inherits the child's input arrivals;
//   - an intermediate node adds one level on its own inputs.
//
// Trees are mapped in topological order so leaf arrivals (other trees'
// mapped roots) are known. Within the fanout-free tree model the
// resulting depth is optimal per tree (max composes monotonically over
// the same search space); area under that depth is greedy, as in
// Chortle-d.

// dvalue is the lexicographic (arrival, cost) DP value.
type dvalue struct {
	arr  int32 // max arrival among the collected root-LUT inputs
	cost int32 // LUTs
}

var dInfinity = dvalue{arr: infinity, cost: infinity}

func dBetter(a, b dvalue) bool {
	if a.arr != b.arr {
		return a.arr < b.arr
	}
	return a.cost < b.cost
}

func dCombine(a, b dvalue) dvalue {
	arr := a.arr
	if b.arr > arr {
		arr = b.arr
	}
	return dvalue{arr: arr, cost: a.cost + b.cost}
}

func (v dvalue) infinite() bool { return v.arr >= infinity || v.cost >= infinity }

// depthState augments a nodeDP with arrival tracking and the choices
// the depth DP records, which the standard reconstruction (emit.go)
// reads through mapper.recorded.
type depthState struct {
	*nodeDP
	gd       [][]dvalue
	mmBestD  []dvalue
	choice   []gChoice // choice[s*stride+u]
	children []*depthState
	// bestArr is the arrival of the node's completed signal (its root
	// LUT output) under the best mapping.
	bestArr int32
}

// buildDepthDP mirrors buildDP with the lexicographic objective.
// leafArr supplies arrivals for leaf edges (PIs and mapped tree roots).
// gov (nil = unmetered) observes cancellation and budgets exactly as in
// buildDPIn; enter through solveDepthDP when it is non-nil.
func buildDepthDP(f *forest.Forest, n *network.Node, opts Options, leafArr func(*network.Node) int32, gov *governor) *depthState {
	ds := &depthState{nodeDP: &nodeDP{node: n}}
	for _, e := range n.Fanins {
		fr := faninRef{edge: e}
		var child *depthState
		if !f.IsLeafEdge(e.Node) {
			child = buildDepthDP(f, e.Node, opts, leafArr, gov)
			fr.child = child.nodeDP
		}
		ds.fanins = append(ds.fanins, fr)
		ds.children = append(ds.children, child)
	}
	ds.computeDepth(opts, leafArr, gov)
	return ds
}

// signalValue is the (arrival, cost) of feeding fanin i as a finished
// signal.
func (ds *depthState) signalValue(i int, leafArr func(*network.Node) int32) dvalue {
	if ds.children[i] == nil {
		return dvalue{arr: leafArr(ds.fanins[i].edge.Node), cost: 0}
	}
	c := ds.children[i]
	return dvalue{arr: c.bestArr, cost: c.bestCost}
}

// mergeValue is the (arrival, cost) of merging fanin i's root LUT with
// v of our pins: the child's collected input arrivals propagate, its
// root LUT disappears.
func (ds *depthState) mergeValue(i, v int) dvalue {
	c := ds.children[i]
	if c == nil {
		return dInfinity
	}
	return c.gd[c.full][v]
}

func (ds *depthState) computeDepth(opts Options, leafArr func(*network.Node) int32, gov *governor) {
	f := len(ds.fanins)
	K := opts.K
	size := uint32(1) << uint(f)
	ds.full = size - 1
	ds.gd = make([][]dvalue, size)
	ds.mmBestD = make([]dvalue, size)
	// The choice table has the flat layout of mapper.choiceAt; the depth
	// path is cold, so plain make (zeroed, which is the correct empty
	// choice) is fine.
	ds.stride = int32(K + 1)
	ds.choice = make([]gChoice, int(size)*(K+1))
	ds.mmBestU = make([]int8, size)

	base := make([]dvalue, K+1)
	for u := 1; u <= K; u++ {
		base[u] = dInfinity
	}
	ds.gd[0] = base

	for s := uint32(1); s < size; s++ {
		if gov != nil {
			work := int64((K + 1) * (K + 1))
			if !opts.DisableDecomposition {
				work += int64(K-1) << uint(bits.OnesCount32(s))
			}
			gov.charge(work)
		}
		row := make([]dvalue, K+1)
		ch := ds.choice[int(s)*(K+1) : (int(s)+1)*(K+1)]
		row[0] = dInfinity
		pivot := bits.TrailingZeros32(s)
		pbit := uint32(1) << uint(pivot)
		rest0 := s ^ pbit

		for u := 2; u <= K; u++ {
			best := dInfinity
			var bc gChoice
			for v := 1; v <= u; v++ {
				var c dvalue
				if v == 1 {
					c = ds.signalValue(pivot, leafArr)
				} else {
					c = ds.mergeValue(pivot, v)
				}
				if c.infinite() {
					continue
				}
				r := ds.gd[rest0][u-v]
				if r.infinite() {
					continue
				}
				if cand := dCombine(c, r); dBetter(cand, best) {
					best = cand
					bc = gChoice{kind: choiceSingleton, v: int8(v)}
				}
			}
			if !opts.DisableDecomposition {
				for d := (s - 1) & s; d > 0; d = (d - 1) & s {
					if d&pbit == 0 || bits.OnesCount32(d) < 2 {
						continue
					}
					c := ds.mmBestD[d]
					if c.infinite() {
						continue
					}
					r := ds.gd[s&^d][u-1]
					if r.infinite() {
						continue
					}
					if cand := dCombine(c, r); dBetter(cand, best) {
						best = cand
						bc = gChoice{kind: choiceIntermediate, d: d}
					}
				}
			}
			row[u] = best
			ch[u] = bc
		}

		// Intermediate-node value: one more LUT and one more level on
		// its own inputs.
		mb := dInfinity
		var mu int8
		for u := 2; u <= K; u++ {
			if row[u].infinite() {
				continue
			}
			cand := dvalue{arr: row[u].arr + 1, cost: row[u].cost + 1}
			if dBetter(cand, mb) {
				mb = cand
				mu = int8(u)
			}
		}
		ds.mmBestD[s] = mb
		ds.mmBestU[s] = mu

		switch {
		case s == pbit:
			row[1] = ds.signalValue(pivot, leafArr)
			ch[1] = gChoice{kind: choiceSingleton, v: 1}
		case !opts.DisableDecomposition:
			row[1] = mb
			ch[1] = gChoice{kind: choiceIntermediate, d: s}
		default:
			row[1] = dInfinity
		}

		ds.gd[s] = row
	}

	bestV := dInfinity
	for u := 2; u <= K; u++ {
		if ds.gd[ds.full][u].infinite() {
			continue
		}
		cand := dvalue{arr: ds.gd[ds.full][u].arr + 1, cost: ds.gd[ds.full][u].cost + 1}
		if dBetter(cand, bestV) {
			bestV = cand
			ds.bestU = u
		}
	}
	ds.bestArr = bestV.arr
	ds.bestCost = bestV.cost
}

// record files the choice table of every node of the tree under its
// nodeDP.
func (ds *depthState) record(rec map[*nodeDP][]gChoice) {
	rec[ds.nodeDP] = ds.choice
	for _, c := range ds.children {
		if c != nil {
			c.record(rec)
		}
	}
}

func errUnmappable(name string, k int) error {
	return fmt.Errorf("core: tree %q is unmappable with K=%d (fanin too wide without decomposition?)", name, k)
}

// realizeTreeDepth maps one tree depth-first and registers its signal
// and arrival. A governor abort (cancellation, budget) surfaces as the
// returned error; Map degrades budget-exhausted trees to bin packing.
func (m *mapper) realizeTreeDepth(root *network.Node, gov *governor) (int32, error) {
	leafArr := func(n *network.Node) int32 {
		if n.IsInput() {
			return 0
		}
		return m.roots[n.ID].arr
	}
	ds, err := solveDepthDP(m.f, root, m.opts, leafArr, gov)
	if err != nil {
		return 0, err
	}
	if ds.bestCost >= infinity {
		return 0, errUnmappable(root.Name, m.opts.K)
	}
	var units int64
	if gov != nil {
		units = gov.units
	}
	m.setProvTree(root.Name, lut.OriginFresh, units)
	m.recorded = make(map[*nodeDP][]gChoice)
	ds.record(m.recorded)
	sig, err := m.emitLUT(ds.nodeDP, ds.full, ds.bestU, m.rootName(root), m.provFor(ds.nodeDP))
	if err != nil {
		return 0, err
	}
	m.realize(root, sig, ds.bestArr)
	return ds.bestCost, nil
}
