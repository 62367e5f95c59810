// Package shapecache implements the storage layer of the cross-run
// shape cache: a sharded, bounded, concurrency-safe map from 64-bit
// structural hashes to opaque values, with per-shard LRU eviction and
// entry+byte cost accounting.
//
// The package is deliberately generic — it knows nothing about trees or
// DP tables. Hash collisions are the caller's problem by design: every
// bucket holds all values that hashed to the same key, and both Get and
// Put take a match predicate that performs full verification (in core's
// case, comparing canonical shape encodings). A collision therefore
// degrades to a miss, never to wrong reuse — the same invariant the
// per-run shape memo upholds, now under concurrency.
//
// Locking is per shard (a power-of-two count, selected by a mixed view
// of the hash), so concurrent mapping runs contend only when they touch
// the same shard. All mutation happens under the shard mutex; values
// themselves must be immutable after publication, which core's frozen
// shape entries guarantee.
package shapecache

import (
	"sync"
	"sync/atomic"
)

// Config bounds a Cache. Zero fields take defaults.
type Config struct {
	// Shards is the shard count, rounded up to a power of two.
	// Default 16.
	Shards int
	// MaxEntries bounds the total entry count across all shards.
	// Default 65536.
	MaxEntries int
	// MaxBytes bounds the total accounted cost across all shards.
	// The bound is approximate: it is enforced per shard, and a single
	// entry larger than a shard's slice of the budget is kept rather
	// than thrashed. Default 256 MiB.
	MaxBytes int64
}

const (
	defaultShards     = 16
	defaultMaxEntries = 1 << 16
	defaultMaxBytes   = 256 << 20
)

// Stats is a point-in-time snapshot of cache effectiveness and size.
type Stats struct {
	Hits      int64 // Get calls that returned a verified value
	Misses    int64 // Get calls that found nothing (or only collisions)
	Puts      int64 // values actually inserted (losing racers excluded)
	Evictions int64 // entries removed by the LRU bound
	Entries   int64 // current resident entry count
	Bytes     int64 // current accounted resident cost
}

// entry is one resident value, threaded on its shard's intrusive LRU
// list (head = most recently used).
type entry struct {
	hash       uint64
	val        any
	cost       int64
	prev, next *entry
}

type shard struct {
	mu      sync.Mutex
	buckets map[uint64][]*entry
	head    *entry
	tail    *entry
	entries int
	bytes   int64
}

// Cache is the sharded store. The zero value is not usable; construct
// with New.
type Cache struct {
	shards []shard
	mask   uint64

	maxEntries int   // per shard
	maxBytes   int64 // per shard

	hits, misses, puts, evictions atomic.Int64
}

// New returns an empty cache honoring cfg's bounds.
func New(cfg Config) *Cache {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	c := &Cache{
		shards:     make([]shard, p),
		mask:       uint64(p - 1),
		maxEntries: (maxEntries + p - 1) / p,
		maxBytes:   (maxBytes + int64(p) - 1) / int64(p),
	}
	if c.maxEntries < 1 {
		c.maxEntries = 1
	}
	if c.maxBytes < 1 {
		c.maxBytes = 1
	}
	for i := range c.shards {
		c.shards[i].buckets = make(map[uint64][]*entry)
	}
	return c
}

// shardFor remixes the hash before masking so bucket keys (the raw
// hash) and shard selection use independent bits.
func (c *Cache) shardFor(h uint64) *shard {
	m := h * 0x9e3779b97f4a7c15
	return &c.shards[(m>>32)&c.mask]
}

// Get returns the first value under h accepted by match, refreshing its
// LRU position. match runs under the shard lock and must be cheap and
// side-effect free on shared state.
func (c *Cache) Get(h uint64, match func(v any) bool) (any, bool) {
	s := c.shardFor(h)
	s.mu.Lock()
	for _, e := range s.buckets[h] {
		if match(e.val) {
			s.touch(e)
			s.mu.Unlock()
			c.hits.Add(1)
			return e.val, true
		}
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Put inserts v under h with the given accounted cost, unless a value
// already resident under h is accepted by match — two runs publishing
// the same shape race benignly, and the first insert wins. It returns
// the resident value (v or the earlier winner). Inserting may evict
// least-recently-used entries to keep the shard within bounds; the newly
// inserted entry is never the eviction victim of its own insert.
func (c *Cache) Put(h uint64, v any, cost int64, match func(v any) bool) any {
	if cost < 0 {
		cost = 0
	}
	s := c.shardFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.buckets[h] {
		if match(e.val) {
			s.touch(e)
			return e.val
		}
	}
	e := &entry{hash: h, val: v, cost: cost}
	s.buckets[h] = append(s.buckets[h], e)
	s.pushFront(e)
	s.entries++
	s.bytes += cost
	c.puts.Add(1)
	s.evictLocked(c)
	return v
}

// evictLocked trims the shard to its bounds, least recently used first,
// always keeping at least one entry (a value larger than the whole
// shard budget is kept, not thrashed).
func (s *shard) evictLocked(c *Cache) {
	for (s.entries > c.maxEntries || s.bytes > c.maxBytes) && s.entries > 1 {
		victim := s.tail
		if victim == nil {
			return
		}
		s.unlink(victim)
		s.removeFromBucket(victim)
		s.entries--
		s.bytes -= victim.cost
		c.evictions.Add(1)
	}
}

func (s *shard) removeFromBucket(e *entry) {
	b := s.buckets[e.hash]
	for i, x := range b {
		if x == e {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(s.buckets, e.hash)
	} else {
		s.buckets[e.hash] = b
	}
}

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// Stats snapshots the cache counters and resident totals. Entries and
// Bytes are summed shard by shard, so the snapshot is consistent per
// shard but only approximately consistent across shards — fine for
// metrics, not a synchronization primitive.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// Len reports the resident entry count (see Stats for caveats).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.entries
		s.mu.Unlock()
	}
	return n
}
