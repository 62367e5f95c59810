package core

import (
	"strings"
	"unsafe"

	"chortle/internal/shapecache"
)

// The cross-run shape cache. The per-run memo (memo.go) already proves
// that a tree DP depends only on the tree's shape and a few options;
// this file promotes that reuse across Map calls. Storage is
// internal/shapecache — sharded, bounded, LRU — keyed by the shape key
// (appendShapeKey), and the values are sharedShape: a heap-frozen DP.
//
// Immutability discipline: the per-run memo hands out arena-backed DP
// tables that die with the run, so publication deep-copies them to the
// heap (freezeDP) with all node and edge pointers dropped, and clones
// the key out of the run's key slab — a cached shape pins nothing of
// the network or run that produced it, and consumers must rebind
// (rebindDP) before reconstructing. A shared shape never changes after
// it is published, so readers share it without locks.
//
// Correctness discipline: the key is injective, so a hit is the same
// shape by construction. Degraded and unmappable solves are never
// published.
// Runs under a wall-clock budget bypass the shared tier entirely: which
// trees such a run degrades is timing-dependent, and cache warmth must
// never change emitted bytes.

// SharedCacheConfig bounds a SharedShapeCache. Zero fields take the
// storage layer's defaults (16 shards, 65536 entries, 256 MiB).
type SharedCacheConfig struct {
	// Shards is the lock-striping factor, rounded up to a power of two.
	Shards int
	// MaxEntries bounds the resident shape count.
	MaxEntries int
	// MaxBytes bounds the accounted resident cost: frozen DP tables and
	// keys.
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
	dp *nodeDP // frozen heap copy (freezeDP); consumers must rebind

	// units is the metered work the origin run spent solving the shape,
	// kept for metrics (a hit saves this much search work).
	units int64
}

// lookup returns the frozen DP resident under key, or nil.
func (c *SharedShapeCache) lookup(key string) *nodeDP {
	v, ok := c.cache.Get(key)
	if !ok {
		return nil
	}
	return v.(*sharedShape).dp
}

// publish offers a fully solved entry to the shared tier, freezing and
// storing it unless it is degraded, unmappable or came from the shared
// tier. On a lost race
// the earlier publisher's shape stays resident and this copy is
// dropped; the local entry keeps its arena-backed dp either way.
func (c *SharedShapeCache) publish(key string, e *shapeEntry) {
	if e.frozen || e.degraded || e.dp == nil || e.dp.bestCost >= infinity {
		return
	}
	frozen, sz := freezeDP(e.dp)
	c.cache.Put(strings.Clone(key), &sharedShape{dp: frozen, units: e.units},
		int64(len(key))+sz+sharedShapeOverhead)
}

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
