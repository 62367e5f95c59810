package shapecache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New(Config{})
	if _, ok := c.Get("k1"); ok {
		t.Fatalf("empty cache returned a value")
	}
	v := c.Put("k1", "a", 10)
	if v != "a" {
		t.Fatalf("Put returned %v, want a", v)
	}
	got, ok := c.Get("k1")
	if !ok || got != "a" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("stats %+v", st)
	}
}

// A Put under a resident key must not replace its value: the first
// publisher wins and both racers end up sharing one entry.
func TestPutFirstInsertWins(t *testing.T) {
	c := New(Config{})
	c.Put("k3", "first", 5)
	res := c.Put("k3", "second", 5)
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
		c.Put(s, s, 1)
	}
	st := c.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	// The most recent inserts survive; the oldest are gone.
	if _, ok := c.Get("9"); !ok {
		t.Fatalf("newest entry evicted")
	}
	if _, ok := c.Get("0"); ok {
		t.Fatalf("oldest entry still resident past the bound")
	}
}

func TestByteBoundEviction(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 1 << 20, MaxBytes: 100})
	c.Put("k1", "a", 60)
	c.Put("k2", "b", 60) // 120 > 100: evicts a
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 60 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatalf("byte bound did not evict the LRU entry")
	}
	// A single entry larger than the whole budget is kept, not thrashed.
	c2 := New(Config{Shards: 1, MaxBytes: 10})
	c2.Put("k5", "big", 1000)
	if _, ok := c2.Get("k5"); !ok {
		t.Fatalf("oversized sole entry was evicted")
	}
}

// Get must refresh recency: a touched entry survives inserts that evict
// colder ones.
func TestLRUTouchOnGet(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 2, MaxBytes: 1 << 30})
	c.Put("k1", "a", 1)
	c.Put("k2", "b", 1)
	c.Get("k1") // a becomes MRU
	c.Put("k3", "c", 1)
	if _, ok := c.Get("k1"); !ok {
		t.Fatalf("recently used entry evicted")
	}
	if _, ok := c.Get("k2"); ok {
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
				key := fmt.Sprint(i % 100)
				want := "v" + key
				if v, ok := c.Get(key); ok {
					if v.(string) != want {
						t.Errorf("goroutine %d: got %v for key %s", g, v, key)
						return
					}
				} else {
					res := c.Put(key, want, int64(i%7)+1)
					if res.(string) != want {
						t.Errorf("goroutine %d: Put resident %v for key %s", g, res, key)
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
		c.Put(s, s, int64(10+i%20))
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
