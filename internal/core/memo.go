package core

import (
	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/slab"
)

// Isomorphic-tree memoization: per-Map caches keyed by the structural
// tree hash (treehash.go). A shapeEntry owns the DP tables solved for
// the first tree of a shape; later trees rebind the tables to their own
// nodes (rebindDP), skipping the 3^fanin DP, and reconstruct from them.

// shapeEntry is the memoized state of one tree shape.
type shapeEntry struct {
	f   *forest.Forest
	rep *network.Node // representative tree whose nodes dp is bound to
	dp  *nodeDP

	// nodes and leaves are the shape's cheap invariants (shapeInfo),
	// compared before the full sameTreeShape walk on bucket scans.
	nodes  int32
	leaves int32

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

	// next is the memo's next entry of the same hash.
	next *shapeEntry
}

// shapeMemo is the per-Map shape cache. A bucket holds every distinct
// shape that hashed to the same value, chained through next in
// insertion order; lookups verify the full structure so hash collisions
// degrade to cache misses, never to wrong reuse.
type shapeMemo struct {
	buckets map[uint64]*shapeEntry
	entries slab.Slab[shapeEntry] // the chunks new entries are carved from
}

// newShapeMemo returns a memo whose index is sized for trees shapes,
// the most a run of that many trees can hold.
func newShapeMemo(trees int) *shapeMemo {
	return &shapeMemo{buckets: make(map[uint64]*shapeEntry, trees)}
}

func (m *shapeMemo) lookup(f *forest.Forest, root *network.Node, si shapeInfo) *shapeEntry {
	for e := m.buckets[si.hash]; e != nil; e = e.next {
		if e.rep == root {
			return e
		}
		// Colliding entries of a different shape almost always differ in
		// size; the counts reject them without walking either tree.
		if e.nodes != si.nodes || e.leaves != si.leaves {
			continue
		}
		if sameTreeShape(e.f, e.rep, f, root) {
			return e
		}
	}
	return nil
}

func (m *shapeMemo) insert(si shapeInfo, e *shapeEntry) {
	e.nodes, e.leaves = si.nodes, si.leaves
	last := m.buckets[si.hash]
	if last == nil {
		m.buckets[si.hash] = e
		return
	}
	for last.next != nil {
		last = last.next
	}
	last.next = e
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

// costMemo caches tree costs by shape across networks — the cost-aware
// duplication search maps hundreds of trial networks that differ from
// the base network in only a couple of trees, so almost every tree of a
// trial resolves here in O(tree) hashing instead of an O(3^fanin) solve.
// Entries remember their origin forest so verification can compare
// shapes across networks.
type costMemo struct {
	buckets map[uint64][]costEntry
}

type costEntry struct {
	f    *forest.Forest
	rep  *network.Node
	cost int32
}

func newCostMemo() *costMemo { return &costMemo{buckets: make(map[uint64][]costEntry)} }

func (m *costMemo) lookup(f *forest.Forest, root *network.Node, h uint64) (int32, bool) {
	for _, e := range m.buckets[h] {
		if sameTreeShape(e.f, e.rep, f, root) {
			return e.cost, true
		}
	}
	return 0, false
}

func (m *costMemo) insert(h uint64, f *forest.Forest, rep *network.Node, cost int32) {
	m.buckets[h] = append(m.buckets[h], costEntry{f: f, rep: rep, cost: cost})
}
