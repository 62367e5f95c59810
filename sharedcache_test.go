package chortle

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"chortle/internal/bench"
)

// The cross-run shape cache's contract, pinned against the full golden
// suite: cache warmth is invisible in the emitted bytes (cold run, warm
// run and no-cache run all produce identical BLIF, at every worker
// count and every K), warm runs actually hit, and any
// number of concurrent Map calls may share one cache under the race
// detector.

func mapWithBLIF(t *testing.T, nw *Network, opts Options) (string, *Result) {
	t.Helper()
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	var sb strings.Builder
	if err := res.Circuit.WriteBLIF(&sb); err != nil {
		t.Fatalf("WriteBLIF: %v", err)
	}
	return sb.String(), res
}

// TestSharedCacheGoldenSuiteByteIdentical is the acceptance grid: all
// golden benchmarks x K=2..5 x GOMAXPROCS 1 and 4, shared cache off,
// cold, and warm.
func TestSharedCacheGoldenSuiteByteIdentical(t *testing.T) {
	for _, c := range goldenCircuits() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			nw, err := bench.Optimized(c)
			if err != nil {
				t.Fatalf("preparing %s: %v", c.Name, err)
			}
			forEachProcs(t, func(procs int) {
				for k := 2; k <= 5; k++ {
					opts := DefaultOptions(k)
					ref := mapToBLIF(t, nw, opts)

					cache := NewSharedCache(SharedCacheConfig{})
					opts.SharedCache = cache
					cold, coldRes := mapWithBLIF(t, nw, opts)
					if cold != ref {
						t.Fatalf("K=%d procs=%d: cold shared-cache BLIF differs", k, procs)
					}
					warm, warmRes := mapWithBLIF(t, nw, opts)
					if warm != ref {
						t.Fatalf("K=%d procs=%d: warm shared-cache BLIF differs", k, procs)
					}
					if coldRes.CacheMisses == 0 {
						t.Fatalf("K=%d procs=%d: cold run reported no misses", k, procs)
					}
					if warmRes.CacheHits == 0 || warmRes.CacheMisses != 0 {
						t.Fatalf("K=%d procs=%d: warm run hits=%d misses=%d",
							k, procs, warmRes.CacheHits, warmRes.CacheMisses)
					}
				}
			})
		})
	}
}

// TestSharedCacheConcurrentStress maps the suite from 8 goroutines
// sharing one deliberately small cache (evictions near-guaranteed),
// checking every output against a cache-free reference. Each goroutine
// prepares its own copies of the networks — Map mutates its input's
// bookkeeping (reindexing), so the *cache* is the only shared state,
// exactly as in chortled where every request parses its own network.
// Run under -race in CI.
func TestSharedCacheConcurrentStress(t *testing.T) {
	nets := determinismSuite(t)
	suite := bench.Suite()
	refs := make(map[string]string)
	blifs := make([]string, len(suite))
	for i, c := range suite {
		var sb strings.Builder
		if err := WriteBLIF(&sb, nets[c.Name]); err != nil {
			t.Fatal(err)
		}
		blifs[i] = sb.String()
		// Reference from the same serialized form the goroutines parse:
		// the BLIF round trip renames internal nodes, so a reference from
		// the in-memory network would differ textually.
		nw, err := ReadBLIF(strings.NewReader(blifs[i]))
		if err != nil {
			t.Fatal(err)
		}
		refs[c.Name] = mapToBLIF(t, nw, DefaultOptions(4))
	}

	cache := NewSharedCache(SharedCacheConfig{Shards: 4, MaxEntries: 64, MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(suite))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range suite {
				// Stagger starting points so goroutines collide on
				// different circuits at any instant.
				ci := (i + g) % len(suite)
				c := suite[ci]
				nw, err := ReadBLIF(strings.NewReader(blifs[ci]))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d parsing %s: %w", g, c.Name, err)
					return
				}
				opts := DefaultOptions(4)
				opts.SharedCache = cache
				res, err := Map(nw, opts)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %s: %w", g, c.Name, err)
					return
				}
				var sb strings.Builder
				if err := res.Circuit.WriteBLIF(&sb); err != nil {
					errs <- err
					return
				}
				if sb.String() != refs[c.Name] {
					errs <- fmt.Errorf("goroutine %d: %s output differs under shared cache", g, c.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Errorf("concurrent suite produced no cache hits: %+v", st)
	}
	if st.Entries > 64 {
		t.Errorf("entry bound violated: %+v", st)
	}
}
