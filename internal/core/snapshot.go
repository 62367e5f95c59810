package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Shape cache persistence: the value codec behind SharedShapeCache
// snapshots. internal/shapecache owns the container (magic, version,
// namespace, checksum, the entry's key, atomic whole-file validation);
// this file owns the per-entry payload — a varint-framed serialization
// of sharedShape: the metered solve units and the frozen DP tree.
//
// Safety discipline mirrors the live cache. The namespace string below
// names this payload format; any incompatible change to sharedShape,
// nodeDP or the shape key must bump it so old snapshots are rejected
// (cold boot) instead of misread. Decoding validates every structural
// invariant rebindDP and reconstruction rely on — table geometry,
// intermediate-node utilizations, and a full lockstep walk of the
// decoded DP skeleton against the entry's key — so a snapshot that
// passes the container checksum but disagrees with itself still loads
// as nothing rather than as a crash or a wrong hit.

// shapeSnapshotNamespace identifies the payload codec. Bump on any
// incompatible change to the encodings in this file or the structures
// they serialize. v4 dropped the payload's own copy of the key.
const shapeSnapshotNamespace = "chortle-shape-v4"

// errBadShapePayload rejects a structurally invalid entry payload.
var errBadShapePayload = errors.New("core: invalid shape snapshot payload")

// decode bounds, applied before allocation so corrupted length fields
// cannot drive memory growth or unbounded recursion.
const (
	maxSnapDPNodes  = 1 << 20
	maxSnapTableLen = 1 << 24
	maxSnapStride   = 64
)

// WriteSnapshot serializes every resident shape to w in the versioned,
// checksummed container format. The snapshot is a warm start for a
// later process: restoring it recovers solved DP tables, not
// correctness-critical state — a lost or rejected snapshot only costs
// cold-cache latency.
func (c *SharedShapeCache) WriteSnapshot(w io.Writer) error {
	return c.cache.Snapshot(w, shapeSnapshotNamespace, func(v any) ([]byte, error) {
		ss, ok := v.(*sharedShape)
		if !ok {
			return nil, nil
		}
		return encodeSharedShape(ss), nil
	})
}

// RestoreSnapshot loads a snapshot written by WriteSnapshot into the
// cache, returning the number of shapes restored. The whole file is
// validated before anything is inserted: any truncation, corruption,
// version or namespace mismatch, or structurally invalid entry rejects
// the snapshot entirely and leaves the cache as it was, so a failed
// boot-time restore degrades to a cold cache.
func (c *SharedShapeCache) RestoreSnapshot(r io.Reader) (int, error) {
	return c.cache.Restore(r, shapeSnapshotNamespace, func(key string, p []byte) (any, error) {
		return decodeSharedShape(key, p)
	})
}

// Shed evicts roughly the given fraction of resident shapes, least
// recently used first, returning the count evicted — the memory
// pressure valve for long-running servers. Shedding only costs future
// hits.
func (c *SharedShapeCache) Shed(fraction float64) int { return c.cache.Shed(fraction) }

// --- encoding ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendInt32s(b []byte, xs []int32) []byte {
	b = appendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendVarint(b, int64(x))
	}
	return b
}

func encodeSharedShape(ss *sharedShape) []byte {
	b := make([]byte, 0, 256)
	b = appendUvarint(b, uint64(ss.units))
	return appendDP(b, ss.dp)
}

func appendDP(b []byte, dp *nodeDP) []byte {
	b = appendUvarint(b, uint64(dp.full))
	b = appendUvarint(b, uint64(dp.stride))
	b = appendInt32s(b, dp.g)
	b = appendInt32s(b, dp.mmBest)
	b = appendUvarint(b, uint64(len(dp.mmBestU)))
	for _, u := range dp.mmBestU {
		b = append(b, byte(u))
	}
	b = appendVarint(b, int64(dp.bestCost))
	b = appendVarint(b, int64(dp.bestU))
	b = appendUvarint(b, uint64(len(dp.fanins)))
	for _, fr := range dp.fanins {
		if fr.child != nil {
			b = append(b, 1)
			b = appendDP(b, fr.child)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// --- decoding ---

// snapReader is a bounds-checked cursor over one entry payload. All
// read methods report failure by setting err sticky, so decoders can
// read linearly and check once.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = errBadShapePayload
	}
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *snapReader) int32s(maxLen int) []int32 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(maxLen) || n > uint64(len(r.b)) { // each element is ≥1 byte
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		v := r.varint()
		if v < -1<<31 || v > 1<<31-1 {
			r.fail()
			return nil
		}
		out[i] = int32(v)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// decodeSharedShape decodes the payload listed under key. A snapshot
// holds no key over shapecache.MaxKeyLen, so no snapshotted shape
// reaches maxSnapDPNodes: every DP node adds at least two bytes to its
// key.
func decodeSharedShape(key string, p []byte) (*sharedShape, error) {
	r := &snapReader{b: p}
	units := r.uvarint()
	var nodes int
	dp := decodeDP(r, &nodes)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", errBadShapePayload)
	}
	if dp == nil || dp.bestCost >= infinity || dp.bestCost < 0 {
		return nil, errBadShapePayload
	}
	// The decoded DP skeleton must match the entry's key — the shape
	// every hit on it rebinds to. A payload that disagrees with its key
	// never enters the cache.
	if !dpMatchesKey(key, dp) {
		return nil, fmt.Errorf("%w: DP skeleton disagrees with its key", errBadShapePayload)
	}
	return &sharedShape{dp: dp, units: int64(units)}, nil
}

func decodeDP(r *snapReader, nodes *int) *nodeDP {
	*nodes++
	if *nodes > maxSnapDPNodes {
		r.fail()
		return nil
	}
	dp := &nodeDP{
		full:   uint32(r.uvarint()),
		stride: int32(r.uvarint()),
		g:      r.int32s(maxSnapTableLen),
	}
	dp.mmBest = r.int32s(maxSnapTableLen)
	nmmu := r.uvarint()
	if r.err != nil {
		return nil
	}
	if nmmu > maxSnapTableLen || nmmu > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	if nmmu > 0 {
		dp.mmBestU = make([]int8, nmmu)
		for i := range dp.mmBestU {
			dp.mmBestU[i] = int8(r.byte())
		}
	}
	dp.bestCost = int32(r.varint())
	dp.bestU = int(r.varint())
	nfan := r.uvarint()
	if r.err != nil {
		return nil
	}
	if nfan > 32 {
		r.fail()
		return nil
	}
	if nfan > 0 {
		dp.fanins = make([]faninRef, nfan)
		for i := range dp.fanins {
			switch r.byte() {
			case 0:
			case 1:
				dp.fanins[i].child = decodeDP(r, nodes)
			default:
				r.fail()
			}
			if r.err != nil {
				return nil
			}
		}
	}
	if r.err != nil {
		return nil
	}
	// Table geometry invariants rebindDP and the choice derivation rely
	// on: one row of stride cells per fanin subset, child rows as long
	// as ours (costMerge reads them at our utilizations), and every
	// utilization a walk can start from inside the row. An intermediate
	// utilization of 1 would make the whole-subset group recurse on
	// itself.
	if dp.stride < 1 || dp.stride > maxSnapStride {
		r.fail()
		return nil
	}
	rows := uint64(1) << len(dp.fanins)
	if uint64(dp.full) != rows-1 || uint64(len(dp.g)) != rows*uint64(dp.stride) ||
		uint64(len(dp.mmBest)) != rows || uint64(len(dp.mmBestU)) != rows {
		r.fail()
		return nil
	}
	for _, u := range dp.mmBestU {
		if u != 0 && (u < 2 || int32(u) >= dp.stride) {
			r.fail()
			return nil
		}
	}
	for _, fr := range dp.fanins {
		if fr.child != nil && fr.child.stride != dp.stride {
			r.fail()
			return nil
		}
	}
	if dp.bestU < 0 || dp.bestU >= int(dp.stride) {
		r.fail()
		return nil
	}
	return dp
}

// dpMatchesKey walks the shape key (see appendShapeKey: the option
// prefix, then per node op + fanin count + per-fanin mark bytes) in
// lockstep with the decoded DP skeleton, requiring the same fanin arity
// and the same leaf/internal split at every position, and a row length
// of the prefix's K+1 (decodeDP already holds every child to the root's).
func dpMatchesKey(key string, dp *nodeDP) bool {
	k, b, ok := splitKeyPrefix([]byte(key))
	if !ok || dp == nil || uint64(dp.stride) != k+1 {
		return false
	}
	var walk func(dp *nodeDP) bool
	walk = func(dp *nodeDP) bool {
		if dp == nil {
			return false
		}
		_, n := binary.Uvarint(b) // op
		if n <= 0 {
			return false
		}
		b = b[n:]
		nf, n := binary.Uvarint(b)
		if n <= 0 {
			return false
		}
		b = b[n:]
		if nf != uint64(len(dp.fanins)) {
			return false
		}
		for i := range dp.fanins {
			if len(b) == 0 {
				return false
			}
			mark := b[0]
			b = b[1:]
			leaf := mark&2 != 0
			if leaf != (dp.fanins[i].child == nil) {
				return false
			}
			if !leaf && !walk(dp.fanins[i].child) {
				return false
			}
		}
		return true
	}
	return walk(dp) && len(b) == 0
}
