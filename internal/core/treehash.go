package core

import (
	"encoding/binary"

	"chortle/internal/forest"
	"chortle/internal/network"
)

// Structural hashing of fanout-free trees. Real netlists are full of
// structurally identical trees (bit slices of adders, repeated control
// cones), and the tree DP's result depends only on the tree's *shape*:
// node operations, fanin order, edge polarities, and which edges are
// leaves — never on which primary input or mapped root a leaf edge
// happens to reference (a leaf edge always costs zero and can never be
// merged). treeHash fingerprints exactly that shape, so one DP solve can
// be reused for every tree with the same fingerprint.
//
// The hash is order-sensitive on purpose: reusing a DP across trees
// whose fanins are permuted would require re-canonicalizing fanin order
// everywhere to keep reconstruction deterministic, changing emitted
// circuits relative to the plain sequential mapper. Hash hits are always
// confirmed with a full structural walk (sameTreeShape) before any
// reuse, so a 64-bit collision can cost a missed reuse, never a wrong
// circuit.

const (
	hashBasis = 0xcbf29ce484222325 // FNV-64 offset basis
	hashPrime = 0x00000100000001b3 // FNV-64 prime
	hashLeaf  = 0x9e3779b97f4a7c15 // leaf-edge marker (any odd constant)
)

func hashStep(h, v uint64) uint64 {
	h ^= v
	h *= hashPrime
	// One extra shuffle keeps single-bit input differences (op codes,
	// invert flags) from landing in nearby output bits.
	h ^= h >> 29
	return h
}

// shapeSeed folds the option fields the cached solve depends on into the
// hash, so one memo table — and, through the shared cache, one cross-run
// namespace — could never conflate runs whose results would differ.
// Beyond K and the decomposition ablation it folds the work-unit budget:
// which shapes degrade is a deterministic function of the limit, and
// degradation must be identical warm or cold. Provenance is not folded:
// the DP tables do not depend on it, so a provenance run reuses shapes
// that a plain run published.
func shapeSeed(opts Options) uint64 {
	h := hashStep(hashBasis, uint64(opts.K))
	if opts.DisableDecomposition {
		h = hashStep(h, 1)
	} else {
		h = hashStep(h, 2)
	}
	return hashStep(h, uint64(opts.Budget.WorkUnits))
}

// shapeInfo bundles a tree's structural hash with two invariants that
// are free to compute during the same walk. Collision-bucket scans
// compare the counts before paying for a full sameTreeShape walk:
// different-shaped trees that collide on the 64-bit hash almost always
// differ in size, so the expensive verification runs only on genuine
// shape matches (and on the pathological same-size collision).
type shapeInfo struct {
	hash   uint64
	nodes  int32 // gates in the tree
	leaves int32 // leaf edges of the tree
}

// treeShapeInfo fingerprints the shape of the fanout-free tree rooted at
// n, returning the structural hash plus the node and leaf-edge counts.
func treeShapeInfo(f *forest.Forest, n *network.Node, seed uint64) shapeInfo {
	var si shapeInfo
	si.hash = treeHashCount(f, n, seed, &si.nodes, &si.leaves)
	return si
}

// treeHash fingerprints the shape of the fanout-free tree rooted at n.
func treeHash(f *forest.Forest, n *network.Node, seed uint64) uint64 {
	var nodes, leaves int32
	return treeHashCount(f, n, seed, &nodes, &leaves)
}

func treeHashCount(f *forest.Forest, n *network.Node, seed uint64, nodes, leaves *int32) uint64 {
	*nodes++
	h := hashStep(seed, uint64(n.Op))
	h = hashStep(h, uint64(len(n.Fanins)))
	for _, e := range n.Fanins {
		if e.Invert {
			h = hashStep(h, 3)
		} else {
			h = hashStep(h, 5)
		}
		if f.IsLeafEdge(e.Node) {
			*leaves++
			h = hashStep(h, hashLeaf)
		} else {
			h = hashStep(h, treeHashCount(f, e.Node, seed, nodes, leaves))
		}
	}
	return h
}

// appendShapeEnc appends an injective canonical encoding of the tree's
// shape: preorder, each node contributing its op and fanin count, each
// fanin edge one marker byte packing the invert flag (bit 0) and
// leafness (bit 1), internal edges followed by their subtree. Explicit
// arity makes the encoding prefix-free per subtree, so byte equality of
// two encodings implies sameTreeShape. The shared cache verifies hits by
// comparing encodings — unlike the per-run memo it cannot keep the
// origin network alive to walk, and the encoding is the shape with the
// network distilled out.
func appendShapeEnc(buf []byte, f *forest.Forest, n *network.Node) []byte {
	buf = binary.AppendUvarint(buf, uint64(n.Op))
	buf = binary.AppendUvarint(buf, uint64(len(n.Fanins)))
	for _, e := range n.Fanins {
		var m byte
		if e.Invert {
			m |= 1
		}
		if f.IsLeafEdge(e.Node) {
			buf = append(buf, m|2)
		} else {
			buf = append(buf, m)
			buf = appendShapeEnc(buf, f, e.Node)
		}
	}
	return buf
}

// shapeEnc is appendShapeEnc prefixed with the run's option seed, so
// encodings from runs at different K (or any other folded option) can
// never compare equal even if the bare trees match.
func shapeEnc(f *forest.Forest, root *network.Node, seed uint64) []byte {
	buf := make([]byte, 8, 64)
	binary.BigEndian.PutUint64(buf, seed)
	return appendShapeEnc(buf, f, root)
}

// sameTreeShape reports whether the trees rooted at a (in forest fa) and
// b (in forest fb) have identical shape: same ops, same fanin order and
// arity, same edge polarities, and leaf edges in the same positions.
// This is the collision guard behind every hash hit.
func sameTreeShape(fa *forest.Forest, a *network.Node, fb *forest.Forest, b *network.Node) bool {
	if a.Op != b.Op || len(a.Fanins) != len(b.Fanins) {
		return false
	}
	for i := range a.Fanins {
		ea, eb := a.Fanins[i], b.Fanins[i]
		if ea.Invert != eb.Invert {
			return false
		}
		la, lb := fa.IsLeafEdge(ea.Node), fb.IsLeafEdge(eb.Node)
		if la != lb {
			return false
		}
		if !la && !sameTreeShape(fa, ea.Node, fb, eb.Node) {
			return false
		}
	}
	return true
}
