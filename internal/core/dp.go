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
// Candidate order and ties. For each u, the candidates for G[S][u] are
// visited in one fixed order: the singleton placements v = 1..u, then
// the intermediate groups d = pivot | d', with d' running over the
// proper nonempty submasks of S minus the pivot in descending order. A
// candidate replaces the cell only when it is strictly cheaper, so the
// first minimum in that order wins, and it fixes the recorded choice.
// compute enumerates each group once per subset and updates the whole
// row u = 2..K from the contiguous row G[S &^ d][1..K-1]. It skips a
// group whose mm(d) is already >= every cell of the row. The skip is
// exact: every cost is >= 0, so such a group cannot be strictly cheaper
// anywhere. Each cell therefore sees the same candidates in the same
// order as a loop that rescans the groups for every u.
//
// Work units. The governor is charged once per subset row, (K+1)^2 +
// (K-1)*2^|S| units with the decomposition search on and (K+1)^2 with it
// off. This is a budget currency, not an iteration count, so a budget
// degrades the same trees however the loops are ordered.
//
// Memory layout: the G and choice tables of a node are flat slabs
// indexed s*(K+1)+u, carved out of a per-goroutine dpArena, so building
// a tree's DP costs O(1) allocations instead of one per subset row.

type choiceKind uint8

const (
	choiceNone choiceKind = iota
	choiceSingleton
	choiceIntermediate
)

// gChoice records how the pivot fanin of a subset was placed, for
// circuit reconstruction.
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

	// stride is K+1, the row length of the flat g/choice tables.
	stride int32

	g       []int32   // g[s*stride+u], u in 0..K
	choice  []gChoice // choice[s*stride+u]
	mmBest  []int32   // mm(s) = 1 + min_u g[s][u]
	mmBestU []int8

	bestCost int32 // min_u minmap(node, u)
	bestU    int
}

func (dp *nodeDP) gAt(s uint32, u int) int32 { return dp.g[int(s)*int(dp.stride)+u] }

func (dp *nodeDP) choiceAt(s uint32, u int) gChoice { return dp.choice[int(s)*int(dp.stride)+u] }

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

func (dp *nodeDP) compute(a *dpArena, opts Options, gov *governor) {
	f := len(dp.fanins)
	K := opts.K
	stride := K + 1
	size := 1 << uint(f)
	dp.full = uint32(size - 1)
	dp.stride = int32(stride)
	dp.g = a.allocI32(size * stride)
	dp.choice = a.allocChoice(size * stride)
	dp.mmBest = a.allocI32(size)
	dp.mmBestU = a.allocI8(size)

	// Arena slabs are recycled, so every cell read later must be written
	// here; the loops below cover u = 0..K for every subset.
	g, choices := dp.g, dp.choice
	g[0] = 0
	choices[0] = gChoice{}
	for u := 1; u <= K; u++ {
		g[u] = infinity
		choices[u] = gChoice{}
	}

	for s := 1; s < size; s++ {
		// One budget charge per subset row, sized to the row's search
		// effort (see the header comment).
		if gov != nil {
			work := int64(stride * stride)
			if !opts.DisableDecomposition {
				work += int64(K-1) << uint(bits.OnesCount32(uint32(s)))
			}
			gov.charge(work)
		}
		row := g[s*stride : (s+1)*stride]
		ch := choices[s*stride : (s+1)*stride]
		row[0] = infinity
		ch[0] = gChoice{}
		pivot := bits.TrailingZeros32(uint32(s))
		pbit := 1 << uint(pivot)
		rest := s ^ pbit

		// Singleton placements: the pivot takes v = 1..u of the pins.
		var pc [truth.MaxVars + 1]int32
		pc[1] = dp.costSignal(pivot)
		for v := 2; v <= K; v++ {
			pc[v] = dp.costMerge(pivot, v)
		}
		rr := g[rest*stride : (rest+1)*stride]
		for u := 2; u <= K; u++ {
			best := infinity
			var bc gChoice
			for v := 1; v <= u; v++ {
				c, r := pc[v], rr[u-v]
				if c >= infinity || r >= infinity {
					continue
				}
				if c+r < best {
					best = c + r
					bc = gChoice{kind: choiceSingleton, v: int8(v)}
				}
			}
			row[u] = best
			ch[u] = bc
		}

		// Intermediate groups d = pivot | dr, dr over the proper nonempty
		// submasks of rest in descending order, each updating the whole
		// row u = 2..K from the contiguous row g[rest &^ dr][1..K-1].
		if !opts.DisableDecomposition {
			cur := row[2:]
			top := slices.Max(cur)
			for dr := (rest - 1) & rest; dr > 0; dr = (dr - 1) & rest {
				c := dp.mmBest[dr|pbit] // dr|pbit < s, already computed
				if c >= top {
					continue // no cell can strictly improve: every r >= 0
				}
				base := (rest &^ dr) * stride
				rem := g[base+1 : base+K]
				hit := false
				for i, r := range rem {
					// c < infinity, so c+r cannot overflow, and an
					// infeasible r (= infinity) never beats a cell.
					if c+r < cur[i] {
						cur[i] = c + r
						ch[i+2] = gChoice{kind: choiceIntermediate, d: uint32(dr | pbit)}
						hit = true
					}
				}
				if hit {
					top = slices.Max(cur)
				}
			}
		}

		// mm(s): the cost of an intermediate node covering exactly s.
		mb := infinity
		var mu int8
		for u := 2; u <= K; u++ {
			if row[u] < infinity && row[u]+1 < mb {
				mb = row[u] + 1
				mu = int8(u)
			}
		}
		dp.mmBest[s] = mb
		dp.mmBestU[s] = mu

		// G[s][1]: a single pin covering all of s.
		switch {
		case s == pbit:
			row[1] = dp.costSignal(pivot)
			ch[1] = gChoice{kind: choiceSingleton, v: 1}
		case !opts.DisableDecomposition:
			row[1] = mb
			ch[1] = gChoice{kind: choiceIntermediate, d: uint32(s)}
		default:
			row[1] = infinity
			ch[1] = gChoice{}
		}
	}

	dp.bestCost = infinity
	for u := 2; u <= K; u++ {
		if c := dp.gAt(dp.full, u); c < infinity && c+1 < dp.bestCost {
			dp.bestCost = c + 1
			dp.bestU = u
		}
	}
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
