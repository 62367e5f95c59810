package core

import (
	"bytes"
	"unsafe"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/shapecache"
)

// The cross-run shape cache. The per-run memo (memo.go) already proves
// that a tree DP depends only on the tree's shape and the option seed;
// this file promotes that reuse across Map calls. Storage is
// internal/shapecache — sharded, bounded, LRU — and the values are
// sharedShape: the canonical shape encoding (the verification key) and
// a heap-frozen DP.
//
// Immutability discipline: the per-run memo hands out arena-backed DP
// tables that die with the run, so publication deep-copies them to the
// heap (freezeDP) with all node and edge pointers dropped — a cached
// shape pins nothing of the network that produced it, and consumers must
// rebind (rebindDP) before reconstructing. A shared shape never changes
// after it is published, so readers share it without locks.
//
// Correctness discipline: hits are verified by byte-comparing canonical
// encodings (seed-prefixed, injective — see appendShapeEnc), so a 64-bit
// hash collision degrades to a miss, never to wrong reuse. Degraded and
// unmappable solves are never published. Runs under a wall-clock budget
// bypass the shared tier entirely: which trees such a run degrades is
// timing-dependent, and cache warmth must never change emitted bytes.

// SharedCacheConfig bounds a SharedShapeCache. Zero fields take the
// storage layer's defaults (16 shards, 65536 entries, 256 MiB).
type SharedCacheConfig struct {
	// Shards is the lock-striping factor, rounded up to a power of two.
	Shards int
	// MaxEntries bounds the resident shape count.
	MaxEntries int
	// MaxBytes bounds the accounted resident cost: frozen DP tables and
	// encodings.
	MaxBytes int64
}

// SharedShapeCache is a process-wide, concurrency-safe cache of tree
// shape solutions, shared by any number of concurrent Map calls through
// Options.SharedCache. A warm cache turns the per-shape DP solve into
// O(tree) pointer work. Eviction only costs future hits; a full or
// thrashing cache still maps correctly.
type SharedShapeCache struct {
	cache *shapecache.Cache
}

// NewSharedShapeCache returns an empty cache honoring cfg.
func NewSharedShapeCache(cfg SharedCacheConfig) *SharedShapeCache {
	return &SharedShapeCache{cache: shapecache.New(shapecache.Config{
		Shards:     cfg.Shards,
		MaxEntries: cfg.MaxEntries,
		MaxBytes:   cfg.MaxBytes,
	})}
}

// Stats snapshots the cache's hit/miss/eviction counters and resident
// totals.
func (c *SharedShapeCache) Stats() shapecache.Stats { return c.cache.Stats() }

// Len reports the resident shape count.
func (c *SharedShapeCache) Len() int { return c.cache.Len() }

// sharedShape is one cached shape, immutable after publish.
type sharedShape struct {
	enc []byte  // seed-prefixed canonical encoding; the verification key
	dp  *nodeDP // frozen heap copy (freezeDP); consumers must rebind

	// units is the metered work the origin run spent solving the shape,
	// kept for metrics (a hit saves this much search work).
	units int64
}

// tieredShapeCache is one Map run's shape storage: the per-run memo (L1),
// optionally backed by a SharedShapeCache (L2). L1 keeps this run's
// arena-backed entries and its wrappers around L2 hits; L2 sees only
// frozen, verified, immutable state. With a nil shared tier it is the
// plain per-run memo. All methods run on the Map's main goroutine.
type tieredShapeCache struct {
	memo   *shapeMemo
	shared *SharedShapeCache
	f      *forest.Forest
	seed   uint64

	// encs caches each root's canonical encoding: lookup computes it on
	// an L1 miss and publish reuses it.
	encs map[*network.Node][]byte

	hits, misses int
}

func newTieredShapeCache(shared *SharedShapeCache, f *forest.Forest, seed uint64) *tieredShapeCache {
	return &tieredShapeCache{
		memo:   newShapeMemo(len(f.Roots)),
		shared: shared,
		f:      f,
		seed:   seed,
		encs:   make(map[*network.Node][]byte),
	}
}

func (c *tieredShapeCache) encFor(root *network.Node) []byte {
	if enc, ok := c.encs[root]; ok {
		return enc
	}
	enc := shapeEnc(c.f, root, c.seed)
	c.encs[root] = enc
	return enc
}

// lookup returns this run's entry for root's shape, or nil. An L1 miss
// may materialize an entry from the shared tier; either way a non-nil
// entry is registered in the run.
func (c *tieredShapeCache) lookup(f *forest.Forest, root *network.Node, si shapeInfo) *shapeEntry {
	if e := c.memo.lookup(f, root, si); e != nil || c.shared == nil {
		return e
	}
	enc := c.encFor(root)
	v, ok := c.shared.cache.Get(si.hash, func(v any) bool {
		return bytes.Equal(v.(*sharedShape).enc, enc)
	})
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	// Wrap the frozen shape in a run-local entry: rep is this run's
	// first instance (so later same-run trees verify against a live
	// network), and frozen forces a rebind even for that instance.
	e := c.memo.entries.New()
	*e = shapeEntry{f: f, rep: root, dp: v.(*sharedShape).dp, frozen: true}
	c.memo.insert(si, e)
	return e
}

// insert registers a freshly created (possibly not yet solved) entry
// for root's shape.
func (c *tieredShapeCache) insert(si shapeInfo, e *shapeEntry) { c.memo.insert(si, e) }

// publish offers a fully solved entry to the shared tier, freezing and
// storing it unless there is no shared tier or the entry is degraded,
// unmappable, or came from the shared tier. On a lost race the earlier
// publisher's shape stays resident and this copy is dropped; the local
// entry keeps its arena-backed dp either way.
func (c *tieredShapeCache) publish(root *network.Node, si shapeInfo, e *shapeEntry) {
	if c.shared == nil || e.frozen || e.degraded || e.dp == nil || e.dp.bestCost >= infinity {
		return
	}
	enc := c.encFor(root)
	frozen, sz := freezeDP(e.dp)
	c.shared.cache.Put(si.hash, &sharedShape{enc: enc, dp: frozen, units: e.units},
		int64(len(enc))+sz+sharedShapeOverhead,
		func(v any) bool { return bytes.Equal(v.(*sharedShape).enc, enc) })
}

// stats reports the run's shared-tier hit/miss counts: distinct shapes
// resolved from, respectively missing in, the shared tier (both zero
// without one).
func (c *tieredShapeCache) stats() (hits, misses int) { return c.hits, c.misses }

// sharedShapeOverhead approximates a sharedShape's fixed footprint for
// the byte accounting.
const sharedShapeOverhead = int64(unsafe.Sizeof(sharedShape{})) + 64

// freezeDP deep-copies an arena-backed DP tree to the heap for cross-run
// sharing. Arena slabs are recycled when the run releases them, so every
// table the cached shape needs is copied out; node and edge pointers
// into the origin network are dropped (rebindDP rebuilds them from the
// consuming tree), so a cached shape keeps nothing of its origin run
// alive. The copy preserves exactly the fields rebindDP reads: full,
// stride, the three table slabs, bestCost/bestU, and the fanins' child
// skeleton. Returns the frozen root and the copy's accounted byte size.
func freezeDP(dp *nodeDP) (*nodeDP, int64) {
	var sz int64
	var walk func(c *nodeDP) *nodeDP
	walk = func(c *nodeDP) *nodeDP {
		n := &nodeDP{
			full:    c.full,
			stride:  c.stride,
			g:       append([]int32(nil), c.g...),
			mmBest:  append([]int32(nil), c.mmBest...),
			mmBestU: append([]int8(nil), c.mmBestU...),

			bestCost: c.bestCost,
			bestU:    c.bestU,
		}
		sz += int64(unsafe.Sizeof(nodeDP{})) +
			int64(len(c.g))*int64(unsafe.Sizeof(int32(0))) +
			int64(len(c.mmBest))*int64(unsafe.Sizeof(int32(0))) +
			int64(len(c.mmBestU))
		if len(c.fanins) > 0 {
			n.fanins = make([]faninRef, len(c.fanins))
			sz += int64(len(c.fanins)) * int64(unsafe.Sizeof(faninRef{}))
			for i := range c.fanins {
				if cc := c.fanins[i].child; cc != nil {
					n.fanins[i].child = walk(cc)
				}
			}
		}
		return n
	}
	return walk(dp), sz
}
