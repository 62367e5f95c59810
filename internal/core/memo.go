package core

import "chortle/internal/network"

// Isomorphic-tree memoization: each Map run solves one DP per distinct
// shape key (shapekey.go) and keeps it in a map owned by solveShapes. A
// shapeEntry owns the DP tables solved for the first tree of a shape;
// later trees rebind the tables to their own nodes (rebindDP), skipping
// the DP solve, and reconstruct from them.

// shapeEntry is the memoized state of one tree shape.
type shapeEntry struct {
	rep *network.Node // representative tree whose nodes dp is bound to
	dp  *nodeDP

	// units is the metered work of the shape's one solve, kept for the
	// representative tree's provenance records (reused trees record 0).
	units int64

	// frozen marks dp as a heap-frozen cross-run copy (freezeDP) whose
	// node and edge pointers are gone: every tree of the shape — the
	// representative included — must rebind before reconstructing, and
	// all of them carry the memo-reuse origin (their solve happened in
	// another run).
	frozen bool

	// degraded marks a shape whose solve exhausted its search budget
	// (dp is nil). Every tree of the shape degrades to bin packing —
	// the work cost of a shape is deterministic, so these are exactly
	// the trees that a solve of their own would degrade.
	degraded bool
}

// rebindDP binds cached DP tables c — solved on a structurally
// identical tree — to the nodes of the tree rooted at n. The flat table
// slabs are shared read-only; only the nodeDP skeleton and fanin
// references (which name actual network nodes for reconstruction) are
// rebuilt, so a cache hit costs O(tree) pointer work instead of an
// O(3^fanin) solve.
func rebindDP(a *dpArena, c *nodeDP, n *network.Node) *nodeDP {
	dp := a.allocNode()
	frs := a.allocFanins(len(n.Fanins))
	for i, e := range n.Fanins {
		fr := faninRef{edge: e}
		if cc := c.fanins[i].child; cc != nil {
			fr.child = rebindDP(a, cc, e.Node)
		}
		frs[i] = fr
	}
	*dp = nodeDP{
		node: n, fanins: frs, full: c.full, stride: c.stride,
		g: c.g, mmBest: c.mmBest, mmBestU: c.mmBestU,
		bestCost: c.bestCost, bestU: c.bestU,
	}
	return dp
}
