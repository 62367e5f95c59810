package core

import (
	"math/bits"
	"slices"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// The tree-mapping dynamic program (Sections 3.1.1–3.1.3).
//
// For a tree node n with fanin edges e_0..e_{f-1}, the paper's
// minmap(n,u) — the cheapest circuit for the subtree at n whose root
// lookup table uses exactly u inputs — is found by searching all
// utilization divisions of all decompositions of n. We organize that
// search as an exact DP over (fanin subset, remaining utilization):
//
//	G[S][u] = minimum cost of realizing the inputs that the root LUT
//	          needs to cover op(n) over exactly the fanins in S, using
//	          exactly u of the root LUT's input pins
//
// with three ways to place the lowest-indexed fanin i of S:
//
//	singleton, u_i = 1: the fanin's finished signal feeds one pin;
//	    cost = bestcost(n_i)            (paper: minmap(n_i, K))
//	singleton, u_i = v >= 2: the fanin subtree's root LUT is merged
//	    into ours, its v inputs becoming our pins;
//	    cost = cost(minmap(n_i, v)) - 1 = G_i[full_i][v]
//	intermediate group d (i in d, |d| >= 2): a new node computing op(n)
//	    over the fanins in d feeds one pin (the paper requires u_i = 1
//	    for intermediate groups); cost = mm(d) = 1 + min_u G[d][u].
//
// Enumerating the group containing the pivot and recursing on S minus
// that group enumerates every set partition and every division exactly
// once, in O(3^f * K) instead of the Bell-number blow-up of the naive
// search. minmap(n, u) = 1 + G[full][u].
//
// G[S][1] (|S| >= 2) covers the case where the *rest* of a parent's
// division wraps all of S into one intermediate node: G[S][1] = mm(S).
//
// Fanin classes. G[S][u] depends on S only through which child edges S
// holds and how many leaf edges: a leaf edge costs 0 as a signal and
// can never merge, so all leaf edges of a node are interchangeable.
// compute therefore runs the recurrence above over class states (a, T)
// — a of the node's l leaf edges and the subset T of its c child edges
// — instead of over fanin subsets, pivoting on a leaf while the state
// holds one and on the lowest child otherwise. That is (l+1)*2^c states
// and about (l+1)(l+2)/2 * 3^c group pairs instead of 2^f subsets and
// 3^f pairs: 11 states for an all-leaf fanin-10 node. It then expands
// the class rows into the per-subset tables g, mmBest and mmBestU, which
// the parent (costMerge), the shape caches, snapshots and reconstruction
// read. compute writes every cell of them, cell 0 included.
//
// Choices are derived, not stored. The candidates for G[S][u], u >= 2,
// come in one fixed order: the singleton placements v = 1..u, then the
// intermediate groups d = pivot | d', d' over the proper nonempty
// submasks of S minus the pivot in descending order. A cell's choice is
// the first candidate in that order whose cost equals the cell: the one
// a search in that order that keeps only strictly cheaper candidates
// records (the tests' reference kernel, computeRef, does). choiceAt
// finds it by scanning that order against the finished table. G[S][1]
// is a pin for a single fanin and the whole-S group otherwise.
//
// Work units. The governor is charged for every subset row, (K+1)^2 +
// (K-1)*2^|S| units with the decomposition search on and (K+1)^2 with it
// off (chargeSubsets). This is a budget currency, not an iteration
// count, so a budget degrades the same trees however the search is
// organized.
//
// Memory layout: the g table of a node is a flat slab indexed
// s*(K+1)+u, carved out of a per-goroutine dpArena with mmBest and
// mmBestU, so building a tree's DP costs O(1) allocations instead of one
// per subset row. The class tables live in the arena's scratch slab,
// which every node's compute reuses.

type choiceKind uint8

const (
	choiceNone choiceKind = iota
	choiceSingleton
	choiceIntermediate
)

// gChoice is how the pivot fanin of a subset is placed, for circuit
// reconstruction: derived from the area DP's tables (choiceAt), recorded
// by the depth DP.
type gChoice struct {
	kind choiceKind
	v    int8   // singleton: utilization granted to the pivot subtree
	d    uint32 // intermediate: the group's fanin mask
}

// faninRef is one fanin edge of a tree node: either a leaf edge
// (primary input or another tree's root) or an internal child with its
// own DP table.
type faninRef struct {
	edge  network.Fanin
	child *nodeDP // nil for leaf edges
}

// nodeDP holds the DP state of one tree node.
type nodeDP struct {
	node   *network.Node
	fanins []faninRef
	full   uint32

	// stride is K+1, the row length of the flat g table.
	stride int32

	g       []int32 // g[s*stride+u], u in 0..K
	mmBest  []int32 // mm(s) = 1 + min_u g[s][u]
	mmBestU []int8

	bestCost int32 // min_u minmap(node, u)
	bestU    int
}

func (dp *nodeDP) gAt(s uint32, u int) int32 { return dp.g[int(s)*int(dp.stride)+u] }

// buildDP constructs DP tables for the tree rooted at n (which must be a
// gate inside the tree), recursively building children first. This
// standalone form allocates a private arena and runs unmetered; the
// mapping hot path goes through buildDPIn with a recycled arena and a
// governor.
func buildDP(f *forest.Forest, n *network.Node, opts Options) *nodeDP {
	return buildDPIn(new(dpArena), f, n, opts, nil)
}

// buildDPIn constructs the tree DP with all state carved from arena a.
// gov (nil = unmetered) observes cancellation and search budgets; on a
// trip it unwinds the whole solve with a *solveAbort panic, so callers
// must enter through solveDP.
func buildDPIn(a *dpArena, f *forest.Forest, n *network.Node, opts Options, gov *governor) *nodeDP {
	dp := a.allocNode()
	frs := a.allocFanins(len(n.Fanins))
	for i, e := range n.Fanins {
		fr := faninRef{edge: e}
		if !f.IsLeafEdge(e.Node) {
			fr.child = buildDPIn(a, f, e.Node, opts, gov)
		}
		frs[i] = fr
	}
	*dp = nodeDP{node: n, fanins: frs}
	dp.compute(a, opts, gov)
	return dp
}

// costSignal is the cost of feeding fanin i as a finished signal
// (utilization 1): zero for leaf edges, bestcost of the child otherwise.
func (dp *nodeDP) costSignal(i int) int32 {
	if dp.fanins[i].child == nil {
		return 0
	}
	return dp.fanins[i].child.bestCost
}

// costMerge is the cost of merging fanin i's root LUT into ours with v
// of our pins: cost(minmap(child, v)) - 1. Leaf edges cannot merge.
func (dp *nodeDP) costMerge(i, v int) int32 {
	c := dp.fanins[i].child
	if c == nil {
		return infinity
	}
	return c.gAt(c.full, v) // (1 + g) - 1
}

// compute solves the node over its fanin classes and expands the class
// rows into the per-subset tables (see the header comment).
func (dp *nodeDP) compute(a *dpArena, opts Options, gov *governor) {
	f := len(dp.fanins)
	K := opts.K
	stride := K + 1
	size := 1 << uint(f)
	decomp := !opts.DisableDecomposition
	dp.full = uint32(size - 1)
	dp.stride = int32(stride)
	gov.chargeSubsets(f, K, decomp)

	// Class state (na, T) — na leaf edges and the child subset T — is
	// row na + n1*T of the class tables; w[i] is what fanin i adds to the
	// row index of a subset holding it.
	l := 0
	for _, fr := range dp.fanins {
		if fr.child == nil {
			l++
		}
	}
	n1 := l + 1
	var w [33]int
	var kids [32]int // fanin index of the j-th child edge
	nc := 0
	for i, fr := range dp.fanins {
		if fr.child == nil {
			w[i] = 1
			continue
		}
		kids[nc] = i
		w[i] = n1 << uint(nc)
		nc++
	}
	states := n1 << uint(nc)
	scratch := a.scratchI32(states * (stride + 2))
	cg := scratch[:states*stride]
	cmm := scratch[states*stride : states*(stride+1)]
	cmu := scratch[states*(stride+1):]

	for T := 0; T < 1<<uint(nc); T++ {
		for na := 0; na <= l; na++ {
			st := na + n1*T
			row := cg[st*stride : (st+1)*stride]
			for u := range row {
				row[u] = infinity
			}
			if st == 0 {
				row[0] = 0
				cmm[0], cmu[0] = infinity, 0
				continue
			}
			// The pivot is a leaf while the state holds one, else its
			// lowest child; pw is its weight in the row index.
			var pc [truth.MaxVars + 1]int32 // pc[v]: the pivot's cost on v pins
			pw, restA, restT := 1, na-1, T
			if na > 0 {
				for v := 2; v <= K; v++ {
					pc[v] = infinity // a leaf never merges
				}
			} else {
				p := bits.TrailingZeros32(uint32(T))
				pw, restA, restT = n1<<uint(p), 0, T&^(1<<uint(p))
				pc[1] = dp.costSignal(kids[p])
				for v := 2; v <= K; v++ {
					pc[v] = dp.costMerge(kids[p], v)
				}
			}
			rest := st - pw

			// Singleton placements: the pivot takes v = 1..u of the pins.
			rr := cg[rest*stride : (rest+1)*stride]
			for u := 2; u <= K; u++ {
				for v := 1; v <= u; v++ {
					if c, r := pc[v], rr[u-v]; c < infinity && r < infinity && c+r < row[u] {
						row[u] = c + r
					}
				}
			}

			// Intermediate groups: the pivot plus da leaves and the
			// children dT of the rest, a proper part of the state. A group
			// whose mm is already >= every cell of the row is skipped:
			// costs are never negative, so it cannot improve any.
			if decomp {
				cur := row[2:]
				top := slices.Max(cur)
				for dT := restT; ; dT = (dT - 1) & restT {
					for da := 0; da <= restA; da++ {
						if (da == 0 && dT == 0) || (da == restA && dT == restT) {
							continue
						}
						c := cmm[pw+da+n1*dT]
						if c >= top {
							continue
						}
						base := (rest - da - n1*dT) * stride
						hit := false
						for i, r := range cg[base+1 : base+K] {
							if c+r < cur[i] {
								cur[i] = c + r
								hit = true
							}
						}
						if hit {
							top = slices.Max(cur)
						}
					}
					if dT == 0 {
						break
					}
				}
			}

			// mm: the cost of an intermediate node covering the state.
			mb, mu := infinity, 0
			for u := 2; u <= K; u++ {
				if row[u] < infinity && row[u]+1 < mb {
					mb = row[u] + 1
					mu = u
				}
			}
			cmm[st], cmu[st] = mb, int32(mu)

			// G[.][1]: a single pin covering the whole state.
			switch {
			case rest == 0:
				row[1] = pc[1]
			case decomp:
				row[1] = mb
			}
		}
	}

	// Expand: subset s takes the rows of its class state. Stepping from
	// s-1 to s clears the trailing ones of s-1 below bit t = ctz(s) and
	// sets bit t.
	dp.g = a.allocI32(size * stride)
	dp.mmBest = a.allocI32(size)
	dp.mmBestU = a.allocI8(size)
	var below [33]int // below[t]: the row-index weight of fanins 0..t-1
	for i := 0; i < f; i++ {
		below[i+1] = below[i] + w[i]
	}
	st := 0
	for s := 0; s < size; s++ {
		if s > 0 {
			t := bits.TrailingZeros32(uint32(s))
			st += w[t] - below[t]
		}
		copy(dp.g[s*stride:(s+1)*stride], cg[st*stride:(st+1)*stride])
		dp.mmBest[s] = cmm[st]
		dp.mmBestU[s] = int8(cmu[st])
	}

	dp.bestCost = infinity
	for u := 2; u <= K; u++ {
		if c := dp.gAt(dp.full, u); c < infinity && c+1 < dp.bestCost {
			dp.bestCost = c + 1
			dp.bestU = u
		}
	}
}

// choiceAt derives how the pivot fanin of subset s is placed in the
// cell (s, u): the first candidate, in the search order, whose cost
// equals the cell (see the header comment). decomp says whether the
// decomposition search ran. A cell no candidate reaches — an infeasible
// cell, or a table that disagrees with itself — has no choice.
func (dp *nodeDP) choiceAt(s uint32, u int, decomp bool) gChoice {
	if s == 0 {
		return gChoice{} // the empty subset places nothing
	}
	pivot := bits.TrailingZeros32(s)
	pbit := uint32(1) << uint(pivot)
	if u == 1 {
		switch {
		case s == pbit:
			return gChoice{kind: choiceSingleton, v: 1}
		case decomp:
			return gChoice{kind: choiceIntermediate, d: s}
		}
		return gChoice{}
	}
	want := dp.gAt(s, u)
	if want >= infinity {
		return gChoice{}
	}
	rest := s ^ pbit
	for v := 1; v <= u; v++ {
		cost := dp.costSignal(pivot)
		if v > 1 {
			cost = dp.costMerge(pivot, v)
		}
		if r := dp.gAt(rest, u-v); cost < infinity && r < infinity && cost+r == want {
			return gChoice{kind: choiceSingleton, v: int8(v)}
		}
	}
	if decomp {
		for dr := (rest - 1) & rest; dr > 0; dr = (dr - 1) & rest {
			cost, r := dp.mmBest[dr|pbit], dp.gAt(rest&^dr, u-1)
			if cost < infinity && r < infinity && cost+r == want {
				return gChoice{kind: choiceIntermediate, d: dr | pbit}
			}
		}
	}
	return gChoice{}
}

// minmap returns cost(minmap(node, u)) for u in 2..K, or infinity when
// infeasible — exposed for the paper's monotonicity lemma tests.
func (dp *nodeDP) minmap(u int) int32 {
	c := dp.gAt(dp.full, u)
	if c >= infinity {
		return infinity
	}
	return c + 1
}
