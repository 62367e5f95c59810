package core

import (
	"math/rand"
	"strings"
	"testing"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/obs"
)

// The observability layer's two core guarantees, tested at the source:
// a nil observer costs the hot path nothing (no allocations, no
// time.Now), and an attached observer sees a faithful event stream
// without perturbing the mapping.

// TestTracerNoopZeroAlloc pins the no-op path: every tracer hook with a
// nil observer must allocate nothing. This is what lets the emission
// sites live unconditionally on the per-tree solve path.
func TestTracerNoopZeroAlloc(t *testing.T) {
	var tr tracer
	allocs := testing.AllocsPerRun(1000, func() {
		end := tr.Phase("reconstruct")
		tr.MapStart(4, 100)
		tr.treeSolve("tree", 123, 4, tr.now())
		tr.memoHit("tree", 4)
		tr.budgetExhausted("tree", 1000)
		tr.treeDegraded("tree", 5)
		tr.arenaStats(2, 4096)
		tr.dupAccepted("node")
		end()
	})
	if allocs != 0 {
		t.Fatalf("nil-observer tracer hooks allocated %v allocs/op, want 0", allocs)
	}
}

// solveBenchFixture builds a single-tree network wide enough for the DP
// to do real work, plus everything a raw solve needs.
func solveBenchFixture(tb testing.TB, leaves int) (*forest.Forest, *network.Node, Options) {
	tb.Helper()
	nw := mkTree(rand.New(rand.NewSource(7)), network.OpAnd, leaves)
	f, err := forest.Decompose(nw)
	if err != nil {
		tb.Fatal(err)
	}
	if len(f.Roots) != 1 {
		tb.Fatalf("fixture has %d trees, want 1", len(f.Roots))
	}
	return f, f.Roots[0], DefaultOptions(4)
}

// TestSolvePathNoObserverZeroAddedAllocs asserts the acceptance
// criterion directly: the per-tree solve path with the tracer hooks in
// place but no observer attached allocates exactly as much as the bare
// solve — zero allocations added.
func TestSolvePathNoObserverZeroAddedAllocs(t *testing.T) {
	f, root, opts := solveBenchFixture(t, 12)
	a := acquireArena()
	defer a.release()
	gov0 := &governor{}
	if _, err := solveDP(a, f, root, opts, gov0); err != nil {
		t.Fatal(err)
	}

	bare := testing.AllocsPerRun(200, func() {
		a.reset()
		gov := &governor{}
		if _, err := solveDP(a, f, root, opts, gov); err != nil {
			t.Fatal(err)
		}
	})
	var tr tracer // nil observer: exactly what an unobserved MapCtx threads through
	traced := testing.AllocsPerRun(200, func() {
		a.reset()
		gov := &governor{}
		start := tr.now()
		dp, err := solveDP(a, f, root, opts, gov)
		if err != nil {
			t.Fatal(err)
		}
		tr.treeSolve(root.Name, gov.units, dp.bestCost, start)
	})
	if traced != bare {
		t.Fatalf("solve path with nil observer allocates %v allocs/op, bare solve %v — tracing added allocations", traced, bare)
	}
}

// BenchmarkPerTreeSolve is the published form of the same guarantee:
// the bare solve and the nil-observer solve report identical allocs/op.
func BenchmarkPerTreeSolve(b *testing.B) {
	f, root, opts := solveBenchFixture(b, 12)
	a := acquireArena()
	defer a.release()
	if _, err := solveDP(a, f, root, opts, &governor{}); err != nil {
		b.Fatal(err)
	}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.reset()
			gov := &governor{}
			if _, err := solveDP(a, f, root, opts, gov); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nil-observer", func(b *testing.B) {
		var tr tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.reset()
			gov := &governor{}
			start := tr.now()
			dp, err := solveDP(a, f, root, opts, gov)
			if err != nil {
				b.Fatal(err)
			}
			tr.treeSolve(root.Name, gov.units, dp.bestCost, start)
		}
	})
	b.Run("collector", func(b *testing.B) {
		tr := newTracer(&obs.Collector{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.reset()
			gov := &governor{}
			start := tr.now()
			dp, err := solveDP(a, f, root, opts, gov)
			if err != nil {
				b.Fatal(err)
			}
			tr.treeSolve(root.Name, gov.units, dp.bestCost, start)
		}
	})
}

// mkRepeatedTrees builds a multi-output network of `copies` structurally
// identical two-level trees over disjoint inputs — every copy after the
// first is a guaranteed shape-memo hit.
func mkRepeatedTrees(copies int) *network.Network {
	nw := network.New("repeat")
	for c := 0; c < copies; c++ {
		p := string(rune('a'+c%26)) + string(rune('0'+c/26))
		var ins [4]*network.Node
		for i := range ins {
			ins[i] = nw.AddInput("x" + p + string(rune('0'+i)))
		}
		a := nw.AddGate("and0"+p, network.OpAnd,
			network.Fanin{Node: ins[0]}, network.Fanin{Node: ins[1]})
		b := nw.AddGate("and1"+p, network.OpAnd,
			network.Fanin{Node: ins[2]}, network.Fanin{Node: ins[3], Invert: true})
		r := nw.AddGate("or"+p, network.OpOr,
			network.Fanin{Node: a}, network.Fanin{Node: b})
		nw.MarkOutput("y"+p, r, false)
	}
	return nw
}

// countKinds tallies an event stream by kind.
func countKinds(events []obs.Event) map[obs.Kind]int {
	m := make(map[obs.Kind]int)
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}

// TestObservedMapEventStream checks the stream's accounting at every
// worker count: one map bracket, the standard phases, one solve or memo
// hit per tree, one LUT event per emitted table, and arena stats —
// while the mapped result stays identical to the unobserved run.
func TestObservedMapEventStream(t *testing.T) {
	nw := mkRepeatedTrees(12)
	ref, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	forEachProcs(t, func(procs int) {
		var c obs.Collector
		opts := DefaultOptions(4)
		opts.Observer = &c
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("%d workers: %v", procs, err)
		}
		if res.LUTs != ref.LUTs || res.Trees != ref.Trees {
			t.Fatalf("%d workers: observed map diverged: %d/%d LUTs, %d/%d trees",
				procs, res.LUTs, ref.LUTs, res.Trees, ref.Trees)
		}
		events := c.Events()
		kinds := countKinds(events)
		if kinds[obs.KindMapStart] != 1 || kinds[obs.KindMapEnd] != 1 {
			t.Errorf("%d workers: map bracket %d/%d, want 1/1",
				procs, kinds[obs.KindMapStart], kinds[obs.KindMapEnd])
		}
		if got := kinds[obs.KindTreeSolve] + kinds[obs.KindMemoHit]; got != res.Trees {
			t.Errorf("%d workers: %d solves + %d hits != %d trees",
				procs, kinds[obs.KindTreeSolve], kinds[obs.KindMemoHit], res.Trees)
		}
		if kinds[obs.KindLUT] != res.LUTs {
			t.Errorf("%d workers: %d LUT events, want %d", procs, kinds[obs.KindLUT], res.LUTs)
		}
		if kinds[obs.KindArenaStats] != 1 {
			t.Errorf("%d workers: %d arena-stats events, want 1", procs, kinds[obs.KindArenaStats])
		}
		r := c.Report()
		if r.LUTs != res.LUTs || r.Trees != res.Trees || r.K != 4 {
			t.Errorf("%d workers: report totals %d LUTs %d trees K=%d", procs, r.LUTs, r.Trees, r.K)
		}
		var names []string
		for _, p := range r.Phases {
			names = append(names, p.Name)
		}
		joined := strings.Join(names, " ")
		for _, want := range []string{"prepare", "forest", "solve", "reconstruct", "finalize"} {
			if !strings.Contains(joined, want) {
				t.Errorf("%d workers: phases %q missing %q", procs, joined, want)
			}
		}
		if r.MemoHits == 0 {
			t.Errorf("%d workers: no memo hits recorded on a netlist with repeated shapes", procs)
		}
	})
}

// TestObservedBudgetDegradation checks that a budget small enough to
// degrade trees produces the budget-exhausted / tree-degraded pair and
// that the report lists exactly Result.Degraded.
func TestObservedBudgetDegradation(t *testing.T) {
	nw := mkTree(rand.New(rand.NewSource(3)), network.OpOr, 40)
	forEachProcs(t, func(procs int) {
		var c obs.Collector
		opts := DefaultOptions(5)
		opts.Budget.WorkUnits = 200
		opts.Observer = &c
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("%d workers: budget of 200 units did not degrade the 40-leaf tree", procs)
		}
		r := c.Report()
		if r.BudgetTrips == 0 {
			t.Errorf("%d workers: no budget-exhausted events", procs)
		}
		if len(r.Degraded) != len(res.Degraded) {
			t.Errorf("%d workers: report lists %v degraded, result %v", procs, r.Degraded, res.Degraded)
		}
	})
}

// TestObservedDupAware checks the duplication search's events: a
// dup-search phase, one dup-accepted event per accepted candidate, and
// the inner map's own bracket.
func TestObservedDupAware(t *testing.T) {
	// figure1 at K=4 has a proven profitable duplication (g2 merges into
	// both consumers), so at least one dup-accepted event must appear.
	nw := figure1()
	var c obs.Collector
	opts := DefaultOptions(4)
	opts.Observer = &c
	res, accepted, err := MapDuplicateCostAware(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("figure1 at K=4 accepted no duplications")
	}
	r := c.Report()
	if r.DupAccepted != accepted {
		t.Errorf("report counts %d accepted duplications, API returned %d", r.DupAccepted, accepted)
	}
	var sawSearch bool
	for _, p := range r.Phases {
		if p.Name == "dup-search" {
			sawSearch = true
		}
	}
	if !sawSearch {
		t.Error("no dup-search phase recorded")
	}
	if r.LUTs != res.LUTs {
		t.Errorf("report LUTs %d, result %d", r.LUTs, res.LUTs)
	}
}
