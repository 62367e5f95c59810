package core

import (
	"math/rand"
	"strings"
	"testing"

	"chortle/internal/network"
	"chortle/internal/verify"
)

func blifOf(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	if err := res.Circuit.WriteBLIF(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSharedCacheByteIdentical maps networks with the shared cache off,
// cold, and warm, at every worker count, and requires the emitted BLIF
// to be identical every time: cache warmth must be invisible in the
// output.
func TestSharedCacheByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nets := []*network.Network{
		identicalTrees(6),
		randomDAG(rng, 6, 24),
		randomDAG(rng, 8, 40),
	}
	for k := 2; k <= 5; k++ {
		forEachProcs(t, func(procs int) {
			cache := NewSharedShapeCache(SharedCacheConfig{})
			for ni, nw := range nets {
				base := DefaultOptions(k)
				ref, err := Map(nw, base)
				if err != nil {
					t.Fatalf("K=%d procs=%d net=%d: %v", k, procs, ni, err)
				}
				want := blifOf(t, ref)

				warm := base
				warm.SharedCache = cache
				cold, err := Map(nw, warm)
				if err != nil {
					t.Fatalf("K=%d procs=%d net=%d cold: %v", k, procs, ni, err)
				}
				if got := blifOf(t, cold); got != want {
					t.Fatalf("K=%d procs=%d net=%d: cold shared-cache BLIF differs", k, procs, ni)
				}
				hot, err := Map(nw, warm)
				if err != nil {
					t.Fatalf("K=%d procs=%d net=%d warm: %v", k, procs, ni, err)
				}
				if got := blifOf(t, hot); got != want {
					t.Fatalf("K=%d procs=%d net=%d: warm shared-cache BLIF differs", k, procs, ni)
				}
				if hot.CacheHits == 0 {
					t.Fatalf("K=%d procs=%d net=%d: warm run reported no cache hits", k, procs, ni)
				}
				if cold.CacheHits != 0 && ni == 0 {
					// Only the first run on a fresh cache is guaranteed
					// fully cold; later nets may legitimately share shapes.
					t.Fatalf("K=%d procs=%d: first cold run reported %d hits", k, procs, cold.CacheHits)
				}
			}
		})
	}
}

// TestSharedCacheSeedNamespaces verifies that runs whose shape keys
// start with different option prefixes never exchange entries: same
// network at K=3 and K=4, with and without a work-unit budget.
// Provenance is not part of the prefix: a provenance run reuses the
// shapes a plain run published, emits the same bytes, and records memo
// origins.
func TestSharedCacheSeedNamespaces(t *testing.T) {
	nw := identicalTrees(4)
	cache := NewSharedShapeCache(SharedCacheConfig{})

	run := func(tune func(*Options)) *Result {
		t.Helper()
		opts := DefaultOptions(3)
		opts.SharedCache = cache
		tune(&opts)
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(func(o *Options) {})
	variants := []func(*Options){
		func(o *Options) { o.K = 4 },
		func(o *Options) { o.Budget.WorkUnits = 1 << 40 },
	}
	for i, tune := range variants {
		if res := run(tune); res.CacheHits != 0 {
			t.Fatalf("variant %d: run in a different option namespace hit %d cached shapes", i, res.CacheHits)
		}
	}
	// The exact same options hit.
	if res := run(func(o *Options) {}); res.CacheHits == 0 {
		t.Fatalf("identical re-run missed the cache")
	}

	prov := run(func(o *Options) { o.Provenance = true })
	if prov.CacheHits == 0 || prov.CacheMisses != 0 {
		t.Fatalf("provenance run over a plain-warmed cache: hits=%d misses=%d", prov.CacheHits, prov.CacheMisses)
	}
	if blifOf(t, prov) != blifOf(t, plain) {
		t.Fatal("provenance run through the shared cache emitted different bytes")
	}
	checkProvenance(t, prov)
	if counts := prov.Circuit.OriginCounts(); counts["fresh"] != 0 || counts["memo"] == 0 {
		t.Fatalf("provenance run over a warm cache: origins %v, want memo only", counts)
	}
}

// TestSharedCacheOptionsNeverAlias: the key prefix is the option values
// themselves. When it was a 64-bit hash of K, the decomposition flag
// and the work-unit budget, the hash's last step was one-to-one in
// h^budget, so every other K had exactly one budget whose keys were
// those of default K=4 runs: a run under it published DPs that K=4 runs
// then hit and rebound. Each such budget is derived here from the old
// hash; under it the other K must still miss, and the K=4 run must emit
// its cold bytes.
func TestSharedCacheOptionsNeverAlias(t *testing.T) {
	step := func(h, v uint64) uint64 { // the old prefix hash step
		h ^= v
		h *= 0x00000100000001b3
		return h ^ h>>29
	}
	afterDecomp := func(k int) uint64 { return step(step(0xcbf29ce484222325, uint64(k)), 2) }

	nw := identicalTrees(4)
	cold, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	f, root := chainTree(t, "t", 3, false, network.OpAnd)
	for _, k := range []int{2, 3, 5, 6} {
		w := afterDecomp(4) ^ afterDecomp(k)
		if step(afterDecomp(k), w) != step(afterDecomp(4), 0) || int64(w) < 0 {
			t.Fatalf("K=%d: budget %d does not reproduce the old collision", k, w)
		}
		other := DefaultOptions(k)
		other.Budget.WorkUnits = int64(w)
		if shapeKey(f, root, shapeKeyPrefix(other)) == shapeKey(f, root, shapeKeyPrefix(DefaultOptions(4))) {
			t.Fatalf("K=%d, budget %d: a tree keys as it does at K=4", k, w)
		}
		cache := NewSharedShapeCache(SharedCacheConfig{})
		other.SharedCache = cache
		if _, err := Map(nw, other); err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions(4)
		o.SharedCache = cache
		res, err := Map(nw, o)
		if err != nil {
			t.Fatalf("K=4 after K=%d, budget %d: %v", k, w, err)
		}
		if res.CacheHits != 0 || blifOf(t, res) != blifOf(t, cold) {
			t.Fatalf("K=4 after K=%d, budget %d: %d shared hits, or bytes differ from a cold run", k, w, res.CacheHits)
		}
	}
}

// TestSharedCacheWallClockBypass: a run under a wall-clock budget must
// neither read nor write the shared tier.
func TestSharedCacheWallClockBypass(t *testing.T) {
	nw := identicalTrees(3)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	opts := DefaultOptions(4)
	opts.SharedCache = cache
	opts.Budget.WallClock = 1 << 40 // effectively unlimited, but set
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 {
		t.Fatalf("wall-clock run touched the shared cache: hits=%d misses=%d", res.CacheHits, res.CacheMisses)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("wall-clock run published to the shared cache: %+v", st)
	}
}

// TestSharedCacheProvenanceOrigins: a warm run's provenance must carry
// the memo-reuse origin and still satisfy the coverage invariant.
func TestSharedCacheProvenanceOrigins(t *testing.T) {
	nw := identicalTrees(5)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	opts := DefaultOptions(4)
	opts.Provenance = true
	opts.SharedCache = cache

	first, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkProvenance(t, first)

	second, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkProvenance(t, second)
	counts := second.Circuit.OriginCounts()
	if counts["fresh"] != 0 {
		t.Fatalf("warm run re-solved %d trees fresh: %v", counts["fresh"], counts)
	}
	if counts["memo"] == 0 {
		t.Fatalf("warm run carries no memo origins: %v", counts)
	}
	if second.CacheHits == 0 || second.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d", second.CacheHits, second.CacheMisses)
	}
}

// TestSharedCacheEvictionPressure: a cache far too small for the
// workload must still map correctly — eviction costs hits, not
// correctness.
func TestSharedCacheEvictionPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cache := NewSharedShapeCache(SharedCacheConfig{Shards: 1, MaxEntries: 2, MaxBytes: 1 << 12})
	for trial := 0; trial < 4; trial++ {
		nw := randomDAG(rng, 6, 30)
		opts := DefaultOptions(4)
		opts.SharedCache = cache
		ref, err := Map(nw, DefaultOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if blifOf(t, res) != blifOf(t, ref) {
			t.Fatalf("trial %d: output differs under eviction pressure", trial)
		}
		if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, int64(trial)); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("pressure test evicted nothing: %+v", st)
	}
}

// TestShapeEncInjective: equal shapes key equal across networks;
// structurally different trees key differently.
func TestShapeEncInjective(t *testing.T) {
	prefix := shapeKeyPrefix(DefaultOptions(4))
	fa, ra := chainTree(t, "a", 3, false, network.OpAnd)
	fb, rb := chainTree(t, "b", 3, false, network.OpAnd)
	base := shapeKey(fa, ra, prefix)
	if shapeKey(fb, rb, prefix) != base {
		t.Fatalf("identical shapes key differently")
	}
	for _, v := range []struct {
		name   string
		depth  int
		invert bool
		op     network.Op
	}{
		{"inverted", 3, true, network.OpAnd},
		{"op", 3, false, network.OpOr},
		{"deeper", 4, false, network.OpAnd},
	} {
		f, r := chainTree(t, v.name, v.depth, v.invert, v.op)
		if shapeKey(f, r, prefix) == base {
			t.Errorf("%s: key collides with base shape", v.name)
		}
	}
	// A different K prefixes a different key for the same tree.
	if shapeKey(fa, ra, shapeKeyPrefix(DefaultOptions(5))) == base {
		t.Errorf("keys for different options coincide")
	}
}

// TestFreezeDPRoundTrip: a frozen copy keeps every field rebindDP needs
// and drops every pointer into the origin network.
func TestFreezeDPRoundTrip(t *testing.T) {
	f, root := chainTree(t, "fz", 3, true, network.OpAnd)
	dp := buildDP(f, root, DefaultOptions(4))
	frozen, sz := freezeDP(dp)
	if sz <= 0 {
		t.Fatalf("freezeDP reported %d bytes", sz)
	}
	var walk func(orig, fz *nodeDP)
	walk = func(orig, fz *nodeDP) {
		if fz.node != nil {
			t.Fatalf("frozen copy retains a network node pointer")
		}
		if fz.full != orig.full || fz.stride != orig.stride ||
			fz.bestCost != orig.bestCost || fz.bestU != orig.bestU {
			t.Fatalf("frozen scalar fields differ")
		}
		if len(fz.g) != len(orig.g) ||
			len(fz.mmBest) != len(orig.mmBest) || len(fz.mmBestU) != len(orig.mmBestU) {
			t.Fatalf("frozen table lengths differ")
		}
		for i := range orig.g {
			if fz.g[i] != orig.g[i] {
				t.Fatalf("frozen g table differs at %d", i)
			}
		}
		if len(fz.fanins) != len(orig.fanins) {
			t.Fatalf("frozen fanin count differs")
		}
		for i := range orig.fanins {
			if fz.fanins[i].edge.Node != nil {
				t.Fatalf("frozen fanin retains an edge node pointer")
			}
			oc, fc := orig.fanins[i].child, fz.fanins[i].child
			if (oc == nil) != (fc == nil) {
				t.Fatalf("frozen fanin child structure differs")
			}
			if oc != nil {
				walk(oc, fc)
			}
		}
	}
	walk(dp, frozen)

	// Rebinding the frozen copy onto the original tree reconstructs the
	// same circuit a direct solve would.
	a := acquireArena()
	defer a.release()
	rb := rebindDP(a, frozen, root)
	if rb.bestCost != dp.bestCost || rb.node != root {
		t.Fatalf("rebind of frozen copy: cost %d vs %d, node %v", rb.bestCost, dp.bestCost, rb.node)
	}
}
