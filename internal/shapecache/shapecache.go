// Package shapecache implements the storage layer of the cross-run
// shape cache: a sharded, bounded, concurrency-safe map from string
// keys to opaque values, with per-shard LRU eviction and entry+byte
// cost accounting.
//
// The package is deliberately generic — it knows nothing about trees or
// DP tables. A key is the whole identity of its value (in core's case,
// the shape key: option prefix and canonical shape encoding), so a
// lookup is one map probe and there is nothing further to verify.
//
// Locking is per shard (a power-of-two count, selected by a fixed hash
// of the key), so concurrent mapping runs contend only when they touch
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
	Hits      int64 // Get calls that found their key
	Misses    int64 // Get calls that found nothing
	Puts      int64 // values actually inserted (losing racers excluded)
	Evictions int64 // entries removed by the LRU bound
	Entries   int64 // current resident entry count
	Bytes     int64 // current accounted resident cost
}

// entry is one resident value, threaded on its shard's intrusive LRU
// list (head = most recently used).
type entry struct {
	key        string
	val        any
	cost       int64
	prev, next *entry
}

type shard struct {
	mu    sync.Mutex
	byKey map[string]*entry
	head  *entry
	tail  *entry
	bytes int64
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
		c.shards[i].byKey = make(map[string]*entry)
	}
	return c
}

// shardFor picks a key's shard by its FNV-1a hash, folded so the mask
// sees the high bits too. The hash is fixed, not seeded per process, so
// two caches holding the same keys shard them alike and snapshot them
// in the same order.
func (c *Cache) shardFor(key string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[(h^h>>32)&c.mask]
}

// Get returns the value under key, refreshing its LRU position.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.byKey[key]
	if ok {
		s.touch(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.val, true
}

// Put inserts v under key with the given accounted cost, unless a value
// is already resident under key — two runs publishing the same shape
// race benignly, and the first insert wins. It returns the resident
// value (v or the earlier winner). Inserting may evict
// least-recently-used entries to keep the shard within bounds; the newly
// inserted entry is never the eviction victim of its own insert.
func (c *Cache) Put(key string, v any, cost int64) any {
	if cost < 0 {
		cost = 0
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byKey[key]; ok {
		s.touch(e)
		return e.val
	}
	e := &entry{key: key, val: v, cost: cost}
	s.byKey[key] = e
	s.pushFront(e)
	s.bytes += cost
	c.puts.Add(1)
	for (len(s.byKey) > c.maxEntries || s.bytes > c.maxBytes) && len(s.byKey) > 1 {
		s.evictTail(c)
	}
	return v
}

// evictTail removes the shard's least recently used entry. A value
// larger than the whole shard budget is kept, not thrashed: Put never
// evicts a shard's last entry.
func (s *shard) evictTail(c *Cache) {
	victim := s.tail
	s.unlink(victim)
	delete(s.byKey, victim.key)
	s.bytes -= victim.cost
	c.evictions.Add(1)
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
		st.Entries += int64(len(s.byKey))
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
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}
