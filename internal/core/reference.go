package core

import (
	"math/bits"

	"chortle/internal/forest"
	"chortle/internal/network"
)

// Reference implementation of the tree-mapping search, transliterating
// the paper's pseudo code (Figure 4) directly: for every node, for every
// utilization U = 2..K, exhaustively enumerate all decompositions (set
// partitions of the fanins into singleton and intermediate groups) and
// all utilization divisions of each. Exponential in fanin — usable only
// for small trees — but structurally independent of the production
// subset DP in dp.go, which the tests validate against it.

type refNode struct {
	node   *network.Node
	fanins []refFanin
	// minmap[u] for u in 0..K (index 1 unused; 2..K populated);
	// best = min over u.
	minmap []int
	best   int
	// mm memoizes intermediate-node costs per fanin subset.
	mm map[uint32]int
	k  int
}

type refFanin struct {
	child *refNode // nil for leaf edges
}

const refInf = int(1) << 30

func buildRef(f *forest.Forest, n *network.Node, k int) *refNode {
	r := &refNode{node: n, k: k, mm: make(map[uint32]int)}
	for _, e := range n.Fanins {
		rf := refFanin{}
		if !f.IsLeafEdge(e.Node) {
			rf.child = buildRef(f, e.Node, k)
		}
		r.fanins = append(r.fanins, rf)
	}
	r.compute()
	return r
}

func (r *refNode) compute() {
	r.minmap = make([]int, r.k+1)
	full := uint32(1)<<uint(len(r.fanins)) - 1
	for u := 2; u <= r.k; u++ {
		r.minmap[u] = r.searchSubset(full, u)
		if r.minmap[u] < refInf {
			r.minmap[u]++ // the root lookup table itself
		}
	}
	r.best = refInf
	for u := 2; u <= r.k; u++ {
		if r.minmap[u] < r.best {
			r.best = r.minmap[u]
		}
	}
}

// searchSubset exhaustively searches all decompositions of the fanin
// subset s and all utilization divisions summing to exactly u, returning
// the minimum input-realization cost (root LUT excluded).
func (r *refNode) searchSubset(s uint32, u int) int {
	members := maskMembers(s)
	best := refInf
	// Enumerate set partitions of members by recursive block assignment.
	var parts [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == len(members) {
			if c := r.costOfPartition(parts, u); c < best {
				best = c
			}
			return
		}
		for bi := range parts {
			parts[bi] = append(parts[bi], members[i])
			rec(i + 1)
			parts[bi] = parts[bi][:len(parts[bi])-1]
		}
		parts = append(parts, []int{members[i]})
		rec(i + 1)
		parts = parts[:len(parts)-1]
	}
	rec(0)
	return best
}

// costOfPartition enumerates utilization divisions of the given
// decomposition: intermediate groups (size >= 2) contribute exactly one
// input (the paper's u_i = 1 rule); singletons get u_i in 1..K. The
// total must equal u.
func (r *refNode) costOfPartition(parts [][]int, u int) int {
	// Feasibility first (each group needs at least one input, singletons
	// at most K): this also breaks the recursion that the trivial
	// one-block partition of the node's own fanin set would otherwise
	// cause via intermediateCost.
	fixedInputs := 0
	nSingles := 0
	for _, p := range parts {
		if len(p) >= 2 {
			fixedInputs++
		} else {
			nSingles++
		}
	}
	if fixedInputs+nSingles > u || fixedInputs+nSingles*r.k < u {
		return refInf
	}
	fixedCost := 0
	var singles []int
	for _, p := range parts {
		if len(p) >= 2 {
			var mask uint32
			for _, i := range p {
				mask |= 1 << uint(i)
			}
			c := r.intermediateCost(mask)
			if c >= refInf {
				return refInf
			}
			fixedCost += c
		} else {
			singles = append(singles, p[0])
		}
	}
	// Distribute the remaining utilization among singletons.
	best := refInf
	var rec func(idx, remaining, acc int)
	rec = func(idx, remaining, acc int) {
		if acc >= best {
			return
		}
		if idx == len(singles) {
			if remaining == 0 && acc < best {
				best = acc
			}
			return
		}
		i := singles[idx]
		minNeeded := len(singles) - idx - 1 // later singletons need >= 1 each
		for v := 1; v <= r.k && remaining-v >= minNeeded; v++ {
			var c int
			if v == 1 {
				c = r.signalCost(i)
			} else {
				c = r.mergeCost(i, v)
			}
			if c >= refInf {
				continue
			}
			rec(idx+1, remaining-v, acc+c)
		}
	}
	rec(0, u-fixedInputs, fixedCost)
	return best
}

func (r *refNode) signalCost(i int) int {
	if r.fanins[i].child == nil {
		return 0
	}
	return r.fanins[i].child.best
}

func (r *refNode) mergeCost(i, v int) int {
	c := r.fanins[i].child
	if c == nil || c.minmap[v] >= refInf {
		return refInf
	}
	return c.minmap[v] - 1
}

// intermediateCost is the paper's minmap(n_d, K) minimized over
// utilization: the intermediate node over subset mask, including its own
// root LUT, searched with the same exhaustive procedure.
func (r *refNode) intermediateCost(mask uint32) int {
	if c, ok := r.mm[mask]; ok {
		return c
	}
	best := refInf
	for u := 2; u <= r.k; u++ {
		if c := r.searchSubset(mask, u); c < refInf && c+1 < best {
			best = c + 1
		}
	}
	r.mm[mask] = best
	return best
}

func maskMembers(s uint32) []int {
	var out []int
	for s != 0 {
		i := bits.TrailingZeros32(s)
		out = append(out, i)
		s &^= 1 << uint(i)
	}
	return out
}

// ReferenceTreeCosts computes per-tree optimal costs with the
// exhaustive reference search. Intended for validation on small
// networks only.
func ReferenceTreeCosts(input *network.Network, opts Options) (map[string]int, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nw := input.Clone()
	nw.Sweep()
	limit := opts.SplitThreshold
	if opts.DisableDecomposition && limit > opts.K {
		limit = opts.K
	}
	splitWideNodes(nw, limit)
	f, err := forest.Decompose(nw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(f.Roots))
	for _, root := range f.Roots {
		r := buildRef(f, root, opts.K)
		out[root.Name] = r.best
	}
	return out, nil
}
