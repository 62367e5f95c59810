package chortle

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/network"
)

// The performance machinery — the solve pool and the isomorphic-tree
// memoization — must be invisible in the output: for every circuit and
// every K, the emitted BLIF is byte-identical whatever the worker count.
// The grids below run at GOMAXPROCS 1, where the pool runs inline, and
// at GOMAXPROCS 4, where several workers race for the trees.

// setProcs sets GOMAXPROCS to n for the rest of the test. GOMAXPROCS is
// process-wide, so never call it from a t.Parallel test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// forEachProcs runs fn at GOMAXPROCS 1 and 4.
func forEachProcs(t *testing.T, fn func(procs int)) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		fn(procs)
	}
}

var (
	detOnce sync.Once
	detNets map[string]*network.Network
)

func determinismSuite(t *testing.T) map[string]*network.Network {
	t.Helper()
	detOnce.Do(func() {
		detNets = make(map[string]*network.Network)
		for _, c := range bench.Suite() {
			nw, err := bench.Optimized(c)
			if err != nil {
				t.Fatalf("preparing %s: %v", c.Name, err)
			}
			detNets[c.Name] = nw
		}
	})
	return detNets
}

func mapToBLIF(t *testing.T, nw *Network, opts Options) string {
	t.Helper()
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	var sb strings.Builder
	if err := res.Circuit.WriteBLIF(&sb); err != nil {
		t.Fatalf("WriteBLIF: %v", err)
	}
	return sb.String()
}

// TestBudgetedMappingDeterministic pins the determinism guarantee of
// Options.Budget: a work budget generous enough never to be exhausted
// must leave the emitted BLIF byte-identical to an unbudgeted run —
// the metering counters may not influence any search decision — at
// every worker count.
func TestBudgetedMappingDeterministic(t *testing.T) {
	nets := determinismSuite(t)
	forEachProcs(t, func(procs int) {
		for _, c := range bench.Suite() {
			nw := nets[c.Name]
			opts := DefaultOptions(4)
			ref := mapToBLIF(t, nw, opts)
			opts.Budget.WorkUnits = 1 << 40
			if got := mapToBLIF(t, nw, opts); got != ref {
				t.Errorf("%s, %d workers: budgeted BLIF differs from unbudgeted", c.Name, procs)
			}
		}
	})
}

// TestObservedMappingDeterministic pins the observability layer's
// read-only guarantee: with Options.Observer attached, the emitted BLIF
// is byte-identical to the unobserved run at every worker count and
// Budget.
func TestObservedMappingDeterministic(t *testing.T) {
	nets := determinismSuite(t)
	forEachProcs(t, func(procs int) {
		for _, c := range bench.Suite() {
			nw := nets[c.Name]
			for _, budget := range []int64{0, 1 << 40} {
				opts := DefaultOptions(4)
				opts.Budget.WorkUnits = budget
				ref := mapToBLIF(t, nw, opts)
				var col Collector
				opts.Observer = &col
				if got := mapToBLIF(t, nw, opts); got != ref {
					t.Errorf("%s, %d workers, budget=%d: observed BLIF differs from unobserved",
						c.Name, procs, budget)
				}
				if col.Len() == 0 {
					t.Errorf("%s, %d workers, budget=%d: observer saw no events", c.Name, procs, budget)
				}
			}
		}
	})
}

// TestMappingDeterministicAcrossModes pins the suite's BLIF at K=2..5
// as identical at every worker count.
func TestMappingDeterministicAcrossModes(t *testing.T) {
	nets := determinismSuite(t)
	ref := make(map[string]string)
	forEachProcs(t, func(procs int) {
		for _, c := range bench.Suite() {
			for k := 2; k <= 5; k++ {
				key := fmt.Sprintf("%s K=%d", c.Name, k)
				got := mapToBLIF(t, nets[c.Name], DefaultOptions(k))
				if want, ok := ref[key]; !ok {
					ref[key] = got
				} else if got != want {
					t.Errorf("%s: %d-worker BLIF differs from the 1-worker one", key, procs)
				}
			}
		}
	})
}

// TestCutEngineDeterministic extends the determinism guarantee to the
// priority-cut engine: running it at any worker count, again, or with
// an observer must leave the emitted BLIF byte-identical.
func TestCutEngineDeterministic(t *testing.T) {
	nets := determinismSuite(t)
	for _, c := range bench.Suite() {
		nw := nets[c.Name]
		for k := 3; k <= 5; k += 2 {
			base := DefaultOptions(k)
			base.Engine = EngineCut
			ref := mapToBLIF(t, nw, base)
			forEachProcs(t, func(procs int) {
				if got := mapToBLIF(t, nw, base); got != ref {
					t.Errorf("%s K=%d, %d workers: cut BLIF differs", c.Name, k, procs)
				}
			})
			var col Collector
			obs := base
			obs.Observer = &col
			if got := mapToBLIF(t, nw, obs); got != ref {
				t.Errorf("%s K=%d: observed cut run differs", c.Name, k)
			}
			if col.Len() == 0 {
				t.Errorf("%s K=%d: observer saw no cut events", c.Name, k)
			}
		}
	}
}
