package shapecache

import (
	"fmt"
	"sync"
	"testing"
)

func matchVal(want string) func(any) bool {
	return func(v any) bool { return v.(string) == want }
}

func TestGetPutBasics(t *testing.T) {
	c := New(Config{})
	if _, ok := c.Get(1, matchVal("a")); ok {
		t.Fatalf("empty cache returned a value")
	}
	v := c.Put(1, "a", 10, matchVal("a"))
	if v != "a" {
		t.Fatalf("Put returned %v, want a", v)
	}
	got, ok := c.Get(1, matchVal("a"))
	if !ok || got != "a" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("stats %+v", st)
	}
}

// Two different values under the same hash must both be reachable, each
// through its own match predicate: collisions are buckets, not
// overwrites, and an unverified value is never served.
func TestCollisionBucket(t *testing.T) {
	c := New(Config{})
	c.Put(7, "a", 1, matchVal("a"))
	c.Put(7, "b", 1, matchVal("b"))
	if got, ok := c.Get(7, matchVal("a")); !ok || got != "a" {
		t.Fatalf("Get a = %v, %v", got, ok)
	}
	if got, ok := c.Get(7, matchVal("b")); !ok || got != "b" {
		t.Fatalf("Get b = %v, %v", got, ok)
	}
	if _, ok := c.Get(7, matchVal("c")); ok {
		t.Fatalf("Get served a colliding value that failed verification")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

// A Put that matches a resident value must not replace it: the first
// publisher wins and both racers end up sharing one entry.
func TestPutFirstInsertWins(t *testing.T) {
	c := New(Config{})
	c.Put(3, "first", 5, matchVal("first"))
	res := c.Put(3, "first", 5, func(v any) bool { return v.(string) == "first" })
	if res != "first" {
		t.Fatalf("second Put returned %v", res)
	}
	if st := c.Stats(); st.Puts != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats %+v, want one resident entry", st)
	}
}

func TestEntryBoundEviction(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 4, MaxBytes: 1 << 30})
	for i := 0; i < 10; i++ {
		s := fmt.Sprint(i)
		c.Put(uint64(i), s, 1, matchVal(s))
	}
	st := c.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	// The most recent inserts survive; the oldest are gone.
	if _, ok := c.Get(9, matchVal("9")); !ok {
		t.Fatalf("newest entry evicted")
	}
	if _, ok := c.Get(0, matchVal("0")); ok {
		t.Fatalf("oldest entry still resident past the bound")
	}
}

func TestByteBoundEviction(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 1 << 20, MaxBytes: 100})
	c.Put(1, "a", 60, matchVal("a"))
	c.Put(2, "b", 60, matchVal("b")) // 120 > 100: evicts a
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 60 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := c.Get(1, matchVal("a")); ok {
		t.Fatalf("byte bound did not evict the LRU entry")
	}
	// A single entry larger than the whole budget is kept, not thrashed.
	c2 := New(Config{Shards: 1, MaxBytes: 10})
	c2.Put(5, "big", 1000, matchVal("big"))
	if _, ok := c2.Get(5, matchVal("big")); !ok {
		t.Fatalf("oversized sole entry was evicted")
	}
}

// Get must refresh recency: a touched entry survives inserts that evict
// colder ones.
func TestLRUTouchOnGet(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 2, MaxBytes: 1 << 30})
	c.Put(1, "a", 1, matchVal("a"))
	c.Put(2, "b", 1, matchVal("b"))
	c.Get(1, matchVal("a")) // a becomes MRU
	c.Put(3, "c", 1, matchVal("c"))
	if _, ok := c.Get(1, matchVal("a")); !ok {
		t.Fatalf("recently used entry evicted")
	}
	if _, ok := c.Get(2, matchVal("b")); ok {
		t.Fatalf("least recently used entry survived")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{Shards: 8, MaxEntries: 256, MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h := uint64(i % 100)
				want := fmt.Sprint(h)
				if v, ok := c.Get(h, matchVal(want)); ok {
					if v.(string) != want {
						t.Errorf("goroutine %d: got %v for hash %d", g, v, h)
						return
					}
				} else {
					res := c.Put(h, want, int64(i%7)+1, matchVal(want))
					if res.(string) != want {
						t.Errorf("goroutine %d: Put resident %v for hash %d", g, res, h)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 256 {
		t.Fatalf("entry bound violated: %+v", st)
	}
	if st.Hits == 0 || st.Puts == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}

// Accounting must balance: after any mix of puts and evictions,
// resident bytes equal the sum of resident entry costs.
func TestAccountingConsistency(t *testing.T) {
	c := New(Config{Shards: 2, MaxEntries: 8, MaxBytes: 200})
	for i := 0; i < 50; i++ {
		s := fmt.Sprint(i)
		c.Put(uint64(i), s, int64(10+i%20), matchVal(s))
	}
	var wantBytes int64
	var wantEntries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			wantBytes += e.cost
			wantEntries++
		}
		s.mu.Unlock()
	}
	st := c.Stats()
	if st.Bytes != wantBytes || st.Entries != wantEntries {
		t.Fatalf("accounting drifted: stats %+v, list says %d entries %d bytes",
			st, wantEntries, wantBytes)
	}
	if c.Len() != int(wantEntries) {
		t.Fatalf("Len = %d, want %d", c.Len(), wantEntries)
	}
}
