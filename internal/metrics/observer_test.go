package metrics

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"chortle/internal/obs"
)

// stream synthesizes the event shape of one small mapping run.
func stream(t0 time.Time) []obs.Event {
	return []obs.Event{
		{Kind: obs.KindMapStart, Time: t0, K: 4, N: 100},
		{Kind: obs.KindPhaseStart, Time: t0, Phase: "prepare"},
		{Kind: obs.KindPhaseEnd, Time: t0.Add(time.Millisecond), Phase: "prepare", Units: int64(time.Millisecond)},
		{Kind: obs.KindPhaseEnd, Time: t0.Add(2 * time.Millisecond), Phase: "forest", Units: int64(time.Millisecond)},
		{Kind: obs.KindTreeSolve, Tree: "a", Units: 10, Cost: 2, Dur: 200 * time.Microsecond},
		{Kind: obs.KindTreeSolve, Tree: "b", Units: 30, Cost: 3, Dur: 400 * time.Microsecond},
		{Kind: obs.KindMemoHit, Tree: "c", Cost: 2},
		{Kind: obs.KindBudgetExhausted, Tree: "d", Units: 100},
		{Kind: obs.KindTreeDegraded, Tree: "d", Cost: 5},
		{Kind: obs.KindLUT, Tree: "l1", N: 4, Depth: 1},
		{Kind: obs.KindLUT, Tree: "l2", N: 3, Depth: 2},
		{Kind: obs.KindArenaStats, N: 2, Units: 4096},
		{Kind: obs.KindDupAccepted, Tree: "g"},
		{Kind: obs.KindMapEnd, Time: t0.Add(10 * time.Millisecond), Cost: 9, Depth: 2, N: 4},
	}
}

func TestObserverBridge(t *testing.T) {
	reg := New()
	o := NewObserver(reg)
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, e := range stream(t0) {
		o.Observe(e)
	}
	checks := map[string]float64{
		"chortle_maps_total":           1,
		"chortle_tree_solves_total":    2,
		"chortle_work_units_total":     40,
		"chortle_memo_hits_total":      1,
		"chortle_budget_trips_total":   1,
		"chortle_degraded_trees_total": 1,
		"chortle_dup_accepted_total":   1,
		"chortle_luts_emitted_total":   2,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Gauge("chortle_last_luts", "").Value(); got != 9 {
		t.Errorf("last luts = %v, want 9", got)
	}
	if got := reg.Gauge("chortle_arena_bytes", "").Value(); got != 4096 {
		t.Errorf("arena bytes = %v, want 4096", got)
	}
	// The run wall histogram caught the 10ms bracket.
	wall := reg.Histogram("chortle_map_wall_seconds", "", nil)
	if wall.Count() != 1 || wall.Sum() != 10*time.Millisecond {
		t.Errorf("map wall: count=%d sum=%s, want 1/10ms", wall.Count(), wall.Sum())
	}
	solve := reg.Histogram("chortle_solve_duration_seconds", "", nil)
	if solve.Count() != 2 || solve.Sum() != 600*time.Microsecond {
		t.Errorf("solve durations: count=%d sum=%s", solve.Count(), solve.Sum())
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	names := checkPromFormat(t, text)
	for _, want := range []string{
		"chortle_phase_duration_seconds_bucket",
		"chortle_memo_hit_rate",
		"chortle_degraded_trees_total",
	} {
		if !names[want] {
			t.Errorf("exposition missing %q", want)
		}
	}
	// hit rate = 1 / (1 + 2)
	if !strings.Contains(text, "chortle_memo_hit_rate 0.33") {
		t.Errorf("memo hit rate not exposed:\n%s", text)
	}
}

// TestObserverNestedBrackets pins the duplication-search shape: the
// inner map bracket does not produce a bogus whole-run wall sample.
func TestObserverNestedBrackets(t *testing.T) {
	reg := New()
	o := NewObserver(reg)
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	o.Observe(obs.Event{Kind: obs.KindMapStart, Time: t0, K: 4})
	o.Observe(obs.Event{Kind: obs.KindMapStart, Time: t0.Add(time.Millisecond), K: 4})
	o.Observe(obs.Event{Kind: obs.KindMapEnd, Time: t0.Add(2 * time.Millisecond), Cost: 5})
	o.Observe(obs.Event{Kind: obs.KindMapEnd, Time: t0.Add(8 * time.Millisecond), Cost: 5})
	wall := reg.Histogram("chortle_map_wall_seconds", "", nil)
	if wall.Count() != 1 {
		t.Fatalf("nested brackets produced %d wall samples, want 1 (outermost)", wall.Count())
	}
	if wall.Sum() != 8*time.Millisecond {
		t.Fatalf("wall sum = %s, want the outermost 8ms", wall.Sum())
	}
	if got := reg.Counter("chortle_maps_total", "").Value(); got != 2 {
		t.Fatalf("maps counter = %v, want 2 (both ends counted)", got)
	}
}

// TestObserverUnknownPhase covers the slow path: a phase name the
// bridge has never seen gets its own labeled series.
func TestObserverUnknownPhase(t *testing.T) {
	reg := New()
	o := NewObserver(reg)
	o.Observe(obs.Event{Kind: obs.KindPhaseEnd, Phase: "experimental", Units: int64(time.Millisecond)})
	h := reg.Histogram("chortle_phase_duration_seconds", "", nil, Label{"phase", "experimental"})
	if h.Count() != 1 {
		t.Fatalf("unknown phase not recorded: count=%d", h.Count())
	}
}

// TestObserverZeroAlloc is the acceptance pin for the metrics bridge:
// once constructed, folding any mapper-emitted event into the registry
// allocates nothing — the bridge may ride on the hot solve path of a
// parallel run without adding GC pressure.
func TestObserverZeroAlloc(t *testing.T) {
	reg := New()
	o := NewObserver(reg)
	t0 := time.Now()
	events := stream(t0)
	// Warm every path once (unknown-phase creation etc. happens here).
	for _, e := range events {
		o.Observe(e)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, e := range events {
			o.Observe(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("metrics bridge allocated %v allocs per event batch, want 0", allocs)
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := New()
	s := NewRuntimeSampler(reg)
	s.Begin()
	// Do some allocating work and force a GC so the deltas move.
	sink := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	runtime.GC()
	_ = sink
	s.End()

	if got := reg.Counter("chortle_runtime_sampled_runs_total", "").Value(); got != 1 {
		t.Fatalf("sampled runs = %v, want 1", got)
	}
	if got := reg.Counter("chortle_run_alloc_bytes_total", "").Value(); got < 256*4096 {
		t.Errorf("run allocs = %v, want >= %d", got, 256*4096)
	}
	if got := reg.Counter("chortle_run_gc_cycles_total", "").Value(); got < 1 {
		t.Errorf("run gc cycles = %v, want >= 1 (runtime.GC forced one)", got)
	}
	if got := reg.Gauge("chortle_run_heap_bytes", "").Value(); got <= 0 {
		t.Errorf("heap gauge = %v, want > 0", got)
	}
	if got := reg.Gauge("chortle_run_goroutines", "").Value(); got < 1 {
		t.Errorf("goroutine gauge = %v, want >= 1", got)
	}

	// Nested brackets collapse; unmatched End is a no-op.
	s.Begin()
	s.Begin()
	s.End()
	s.End()
	s.End()
	if got := reg.Counter("chortle_runtime_sampled_runs_total", "").Value(); got != 2 {
		t.Fatalf("after nesting, sampled runs = %v, want 2", got)
	}

	// Process gauges are live at scrape time.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "chortle_process_goroutines") {
		t.Error("process goroutine gauge missing from exposition")
	}
	checkPromFormat(t, sb.String())
}
