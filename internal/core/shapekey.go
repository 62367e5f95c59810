package core

import (
	"encoding/binary"

	"chortle/internal/forest"
	"chortle/internal/network"
)

// Shape keys. Real netlists are full of structurally identical trees
// (bit slices of adders, repeated control cones), and the tree DP's
// result depends only on the tree's *shape*: node operations, fanin
// order, edge polarities, and which edges are leaves — never on which
// primary input or mapped root a leaf edge happens to reference (a leaf
// edge always costs zero and can never be merged). A shape key encodes
// exactly that shape, prefixed with the options the solve depends on,
// and is the one identity every shape cache uses: the per-run memo, the
// duplication search's cost memo, the shared tier and its snapshots.
// Prefix and encoding are both injective, so equal keys are equal
// shapes under equal options, and a Go map does all the hashing and
// comparing.
//
// The key is order-sensitive on purpose: reusing a DP across trees
// whose fanins are permuted would require re-canonicalizing fanin order
// everywhere to keep reconstruction deterministic, changing emitted
// circuits relative to the plain sequential mapper.

// shapeKeyPrefix returns the key prefix: the option values the cached
// solve depends on, written out (uvarint K, one decomposition byte,
// uvarint work-unit budget) rather than hashed, so keys stay injective
// across options as well as shapes and one memo table — and, through
// the shared cache, one cross-run namespace — can never conflate runs
// whose results would differ. The work-unit budget is there because
// which shapes degrade is a deterministic function of the limit, and
// degradation must be identical warm or cold. Provenance is not: the DP
// tables do not depend on it, so a provenance run reuses shapes that a
// plain run published.
func shapeKeyPrefix(opts Options) []byte {
	b := binary.AppendUvarint(nil, uint64(opts.K))
	var dec byte
	if opts.DisableDecomposition {
		dec = 1
	}
	b = append(b, dec)
	return binary.AppendUvarint(b, uint64(opts.Budget.WorkUnits))
}

// splitKeyPrefix parses a key's option prefix, returning its K and the
// shape encoding that follows; ok is false if the prefix is malformed.
func splitKeyPrefix(key []byte) (k uint64, enc []byte, ok bool) {
	k, n := binary.Uvarint(key)
	if n <= 0 || len(key) == n || key[n] > 1 {
		return 0, nil, false
	}
	key = key[n+1:]
	if _, n = binary.Uvarint(key); n <= 0 {
		return 0, nil, false
	}
	return k, key[n:], true
}

// appendShapeKey appends the shape key of the tree rooted at root: the
// option prefix (shapeKeyPrefix), then appendShapeEnc. Callers build it
// in a reused buffer and probe with m[string(key)], which does not
// allocate; only a key that a map keeps is copied out.
func appendShapeKey(buf []byte, f *forest.Forest, root *network.Node, prefix []byte) []byte {
	return appendShapeEnc(append(buf, prefix...), f, root)
}

// appendShapeEnc appends an injective canonical encoding of the tree's
// shape: preorder, each node contributing its op and fanin count, each
// fanin edge one marker byte packing the invert flag (bit 0) and
// leafness (bit 1), internal edges followed by their subtree. Explicit
// arity makes the encoding prefix-free per subtree, so two trees encode
// equal exactly when they have the same shape. It is also the shape
// with the network distilled out: a key pins nothing of the run that
// made it.
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
