package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"unsafe"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/shapecache"
)

// The cross-run shape cache. The per-run memo (memo.go) already proves
// that a tree DP and its emission templates depend only on the tree's
// shape and the option seed; this file promotes that reuse across Map
// calls. Storage is internal/shapecache — sharded, bounded, LRU — and
// the values are sharedShape: an immutable-after-publish bundle of the
// canonical shape encoding (the verification key), a heap-frozen DP, and
// a copy-on-write template map.
//
// Immutability discipline: the per-run memo hands out arena-backed DP
// tables that die with the run, so publication deep-copies them to the
// heap (freezeDP) with all node and edge pointers dropped — a cached
// shape pins nothing of the network that produced it, and consumers must
// rebind (rebindDP) before reconstructing. Templates are the one field
// that grows after publish; they go through an atomic copy-on-write map
// so readers never lock and never observe a partial write.
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
	// MaxBytes bounds the accounted resident cost: frozen DP tables,
	// encodings, and published templates.
	MaxBytes int64
}

// SharedShapeCache is a process-wide, concurrency-safe cache of tree
// shape solutions, shared by any number of concurrent Map calls through
// Options.SharedCache. A warm cache turns the per-shape DP solve and
// most of reconstruction into O(tree) pointer work. Eviction only costs
// future hits; a full or thrashing cache still maps correctly.
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

// maxSharedTemplates caps the leaf-coincidence patterns published per
// shape. Patterns beyond the cap stay run-local: correctness is
// unaffected (a missing template means normal reconstruction), and the
// cap keeps one pathological shape from monopolizing the byte budget.
const maxSharedTemplates = 16

// sharedShape is one cached shape. enc and dp are immutable after
// publish; templates grow copy-on-write.
type sharedShape struct {
	enc []byte  // seed-prefixed canonical encoding; the verification key
	dp  *nodeDP // frozen heap copy (freezeDP); consumers must rebind

	// units is the metered work the origin run spent solving the shape,
	// kept for metrics (a hit saves this much search work).
	units int64

	mu        sync.Mutex // serializes template publication
	templates atomic.Pointer[map[string]*emitTemplate]
	handle    atomic.Pointer[shapecache.Handle]
}

func (s *sharedShape) templateFor(pattern string) *emitTemplate {
	m := s.templates.Load()
	if m == nil {
		return nil
	}
	return (*m)[pattern]
}

// addTemplate publishes a recorded template under its leaf pattern via
// copy-on-write: the first writer of a pattern wins (all recordings of a
// (shape, pattern, seed) class are identical anyway), and the resident
// entry's accounted cost grows by the template's footprint.
func (s *sharedShape) addTemplate(pattern string, t *emitTemplate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.templates.Load()
	if old != nil {
		if _, ok := (*old)[pattern]; ok {
			return
		}
		if len(*old) >= maxSharedTemplates {
			return
		}
	}
	next := make(map[string]*emitTemplate, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[pattern] = t
	s.templates.Store(&next)
	if h := s.handle.Load(); h != nil {
		h.Grow(templateBytes(pattern, t))
	}
}

// setHandle attaches the storage handle once, right after Put. A reader
// that raced in between Put and setHandle merely skips one Grow — an
// accounting slack of one template, never a correctness issue.
func (s *sharedShape) setHandle(h shapecache.Handle) {
	s.handle.CompareAndSwap(nil, &h)
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
		memo:   newShapeMemo(),
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
	ss := v.(*sharedShape)
	// Wrap the frozen shape in a run-local entry: rep is this run's
	// first instance (so later same-run trees verify against a live
	// network), frozen forces a rebind even for that instance, and seen
	// engages the template machinery immediately — the shared shape has
	// proven repetition already.
	e := &shapeEntry{
		f: f, rep: root, dp: ss.dp,
		frozen: true, seen: true, shared: ss,
		templates: make(map[string]*emitTemplate),
	}
	c.memo.insert(si, e)
	return e
}

// insert registers a freshly created (possibly not yet solved) entry
// for root's shape.
func (c *tieredShapeCache) insert(si shapeInfo, e *shapeEntry) { c.memo.insert(si, e) }

// publish offers a fully solved entry to the shared tier, freezing and
// storing it unless there is no shared tier or the entry is degraded,
// unmappable, or already shared.
func (c *tieredShapeCache) publish(root *network.Node, si shapeInfo, e *shapeEntry) {
	if c.shared == nil || e.shared != nil || e.frozen || e.degraded || e.dp == nil || e.dp.bestCost >= infinity {
		return
	}
	enc := c.encFor(root)
	frozen, sz := freezeDP(e.dp)
	ss := &sharedShape{enc: enc, dp: frozen, units: e.units}
	res, h := c.shared.cache.Put(si.hash, ss, int64(len(enc))+sz+sharedShapeOverhead,
		func(v any) bool { return bytes.Equal(v.(*sharedShape).enc, enc) })
	win := res.(*sharedShape)
	if win == ss {
		win.setHandle(h)
	}
	// On a lost race the earlier publisher's shape wins and our frozen
	// copy is garbage; either way the local entry keeps its arena-backed
	// dp (this run's arenas outlive it) and only templates flow through.
	e.shared = win
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
// nodeIdx, stride, the four table slabs, bestCost/bestU, and the
// fanins' child skeleton. Returns the frozen root and the copy's
// accounted byte size.
func freezeDP(dp *nodeDP) (*nodeDP, int64) {
	var sz int64
	var walk func(c *nodeDP) *nodeDP
	walk = func(c *nodeDP) *nodeDP {
		n := &nodeDP{
			full:    c.full,
			nodeIdx: c.nodeIdx,
			stride:  c.stride,
			g:       append([]int32(nil), c.g...),
			choice:  append([]gChoice(nil), c.choice...),
			mmBest:  append([]int32(nil), c.mmBest...),
			mmBestU: append([]int8(nil), c.mmBestU...),

			bestCost: c.bestCost,
			bestU:    c.bestU,
		}
		sz += int64(unsafe.Sizeof(nodeDP{})) +
			int64(len(c.g))*int64(unsafe.Sizeof(int32(0))) +
			int64(len(c.choice))*int64(unsafe.Sizeof(gChoice{})) +
			int64(len(c.mmBest))*int64(unsafe.Sizeof(int32(0))) +
			int64(len(c.mmBestU))
		if len(c.fanins) > 0 {
			n.fanins = make([]faninRef, len(c.fanins))
			sz += int64(len(c.fanins)) * int64(unsafe.Sizeof(faninRef{}))
			for i := range c.fanins {
				n.fanins[i] = faninRef{leafIdx: c.fanins[i].leafIdx}
				if cc := c.fanins[i].child; cc != nil {
					n.fanins[i].child = walk(cc)
				}
			}
		}
		return n
	}
	return walk(dp), sz
}

// templateBytes approximates a template's heap footprint for the byte
// accounting.
func templateBytes(pattern string, t *emitTemplate) int64 {
	sz := int64(len(pattern)) + 64
	sz += int64(len(t.freshes)) * 4
	for i := range t.luts {
		l := &t.luts[i]
		sz += int64(unsafe.Sizeof(lutSpec{}))
		sz += int64(len(l.inputs)) * 4
		sz += int64(len(l.covers))*4 + int64(len(l.shape))
	}
	return sz
}
