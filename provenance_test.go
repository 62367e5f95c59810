package chortle

import (
	"bytes"
	"fmt"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/lut"
)

// Provenance invariants, verified over the full golden benchmark set:
// with Options.Provenance on, every emitted LUT carries a record, and
// the Covers sets exactly partition the prepared network's gate nodes.
// A second test pins the passivity guarantee: the emitted circuit is
// byte-identical with provenance on or off.

// preparedGates returns the non-PI node names of the network the mapper
// actually covered (Result.Prepared).
func preparedGates(t *testing.T, res *Result) map[string]bool {
	t.Helper()
	if res.Prepared == nil {
		t.Fatal("Result.Prepared not recorded with Options.Provenance set")
	}
	gates := make(map[string]bool)
	for _, n := range res.Prepared.Nodes {
		if !n.IsInput() {
			gates[n.Name] = true
		}
	}
	return gates
}

func checkProvenance(t *testing.T, label string, res *Result) {
	t.Helper()
	if err := res.Circuit.CheckProvenance(preparedGates(t, res)); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

func TestProvenanceInvariants(t *testing.T) {
	for _, c := range goldenCircuits() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			nw, err := bench.Optimized(c)
			if err != nil {
				t.Fatalf("preparing %s: %v", c.Name, err)
			}
			for k := 2; k <= 5; k++ {
				opts := DefaultOptions(k)
				opts.Provenance = true
				res, err := Map(nw, opts)
				if err != nil {
					t.Fatalf("K=%d map: %v", k, err)
				}
				checkProvenance(t, fmt.Sprintf("K=%d", k), res)
			}
		})
	}
}

// TestProvenanceModes covers the emission paths the default grid does
// not reach: the single- and multi-worker pools, repacking (which folds
// records), the bin-packing strategy, the depth objective, budget
// degradation, and duplication.
func TestProvenanceModes(t *testing.T) {
	c, err := bench.ByName("rd73")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bench.Optimized(c)
	if err != nil {
		t.Fatal(err)
	}
	base := func() Options {
		o := DefaultOptions(4)
		o.Provenance = true
		return o
	}
	cases := []struct {
		name  string
		procs int // GOMAXPROCS for the case; 0 leaves it alone
		opts  Options
	}{
		{"sequential", 1, base()},
		{"parallel", 4, base()},
		{"repack", 0, func() Options { o := base(); o.RepackLUTs = true; return o }()},
		{"binpack", 0, func() Options { o := base(); o.Strategy = StrategyBinPack; return o }()},
		{"depth", 0, func() Options { o := base(); o.OptimizeDepth = true; return o }()},
		{"degraded", 0, func() Options { o := base(); o.Budget = Budget{WorkUnits: 1}; return o }()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs != 0 {
				setProcs(t, tc.procs)
			}
			res, err := Map(nw, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkProvenance(t, tc.name, res)
			if tc.name == "degraded" && len(res.Degraded) == 0 {
				t.Fatal("WorkUnits=1 budget degraded no trees; case is vacuous")
			}
		})
	}
	t.Run("duplicate", func(t *testing.T) {
		res, _, err := MapDuplicateCostAware(nw, base())
		if err != nil {
			t.Fatal(err)
		}
		checkProvenance(t, "duplicate", res)
	})
}

// TestProvenancePassive pins the core guarantee: turning provenance on
// changes nothing about the emitted circuit, at any worker count.
func TestProvenancePassive(t *testing.T) {
	c, err := bench.ByName("9symml")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bench.Optimized(c)
	if err != nil {
		t.Fatal(err)
	}
	forEachProcs(t, func(procs int) {
		opts := DefaultOptions(4)
		plain, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Provenance = true
		prov, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := plain.Circuit.WriteBLIF(&a); err != nil {
			t.Fatal(err)
		}
		if err := prov.Circuit.WriteBLIF(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%d workers: circuit differs with provenance on", procs)
		}
	})
}

// TestProvenanceOriginsMemo checks that the memoized run actually
// exercises the reuse origins (otherwise the origin taxonomy is dead
// code) and that DOT-relevant fields (tree, covers, shape) stay the
// same when origins differ: a run through a warm shared cache solves
// nothing itself, yet must record the same structure.
func TestProvenanceOriginsMemo(t *testing.T) {
	c, err := bench.ByName("des")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bench.Optimized(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(4)
	opts.Provenance = true
	memo, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := memo.Circuit.OriginCounts()
	if counts[lut.OriginMemo.String()] == 0 {
		t.Errorf("memoized des mapping recorded no memo origins: %v", counts)
	}

	opts.SharedCache = NewSharedCache(SharedCacheConfig{})
	if _, err := Map(nw, opts); err != nil {
		t.Fatal(err)
	}
	warm, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Circuit.OriginCounts()[lut.OriginFresh.String()]; n != 0 {
		t.Fatalf("warm run recorded %d fresh LUTs; the comparison is vacuous", n)
	}
	for _, l := range memo.Circuit.LUTs {
		p, q := memo.Circuit.ProvenanceOf(l.Name), warm.Circuit.ProvenanceOf(l.Name)
		if q == nil {
			t.Fatalf("lut %q missing from warm provenance", l.Name)
		}
		if p.Tree != q.Tree || p.Shape != q.Shape || fmt.Sprint(p.Covers) != fmt.Sprint(q.Covers) {
			t.Fatalf("lut %q: structural provenance differs through a warm cache:\n  memo %+v\n  warm %+v", l.Name, p, q)
		}
		if !p.Origin.Searched() || !q.Origin.Searched() {
			t.Fatalf("lut %q: exhaustive mapping recorded non-searched origin", l.Name)
		}
	}
}
