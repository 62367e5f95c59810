package core

import (
	"time"

	"chortle/internal/lut"
	"chortle/internal/obs"
)

// tracer is the core's emission shim over obs.Observer. Every method is
// a no-op when no observer is attached — a single nil check, no
// time.Now call, no event construction, no allocation — which is what
// lets DefaultOptions leave observability compiled into the hot path.
// With an observer attached, every emission is read-only with respect
// to the mapping: sinks see data, they never influence a search
// decision, so the emitted circuit is byte-identical either way.
type tracer struct {
	o obs.Observer
}

// on reports whether an observer is attached; callers use it to skip
// preparing data (circuit stats, level maps) that only events consume.
func (t tracer) on() bool { return t.o != nil }

// noopDone is the pre-allocated closure phase returns when disabled.
var noopDone = func() {}

// phase opens a pipeline phase and returns the closure that closes it.
// The end event carries the phase's wall time, so aggregation needs no
// start/end pairing.
func (t tracer) phase(name string) func() {
	if t.o == nil {
		return noopDone
	}
	start := time.Now()
	t.o.Observe(obs.Event{Kind: obs.KindPhaseStart, Time: start, Phase: name})
	return func() {
		now := time.Now()
		t.o.Observe(obs.Event{Kind: obs.KindPhaseEnd, Time: now, Phase: name, Units: int64(now.Sub(start))})
	}
}

func (t tracer) mapStart(k, nodes int) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindMapStart, Time: time.Now(), K: k, N: nodes})
}

// now is the tracer's clock: the zero time with no observer attached
// (no time.Now call on the disabled path), the wall clock otherwise.
// Solve sites read it before the DP so treeSolve can report a duration.
func (t tracer) now() time.Time {
	if t.o == nil {
		return time.Time{}
	}
	return time.Now()
}

// treeSolve records one completed tree DP solve, the work units its
// governor metered, and — when the caller bracketed the solve with
// t.now() — its wall time.
func (t tracer) treeSolve(tree string, units int64, cost int32, start time.Time) {
	if t.o == nil {
		return
	}
	now := time.Now()
	var d time.Duration
	if !start.IsZero() {
		d = now.Sub(start)
	}
	t.o.Observe(obs.Event{Kind: obs.KindTreeSolve, Time: now, Tree: tree, Units: units, Cost: int(cost), Dur: d})
}

// memoHit records a tree that reused the DP of a structurally identical
// tree instead of solving its own.
func (t tracer) memoHit(tree string, cost int32) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindMemoHit, Time: time.Now(), Tree: tree, Cost: int(cost)})
}

func (t tracer) budgetExhausted(tree string, limit int64) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindBudgetExhausted, Time: time.Now(), Tree: tree, Units: limit})
}

func (t tracer) treeDegraded(tree string, cost int32) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindTreeDegraded, Time: time.Now(), Tree: tree, Cost: int(cost)})
}

func (t tracer) arenaStats(count int, bytes int64) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindArenaStats, Time: time.Now(), N: count, Units: bytes})
}

func (t tracer) dupAccepted(node string) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindDupAccepted, Time: time.Now(), Tree: node})
}

// circuit closes a run: one KindLUT event per emitted lookup table
// (input count and level) and the KindMapEnd summary. Emitted only when
// an observer is attached, so the level computation never runs on an
// unobserved map.
func (t tracer) circuit(ckt *lut.Circuit, trees int) {
	if t.o == nil {
		return
	}
	levels, err := ckt.Levels()
	if err != nil {
		// The circuit was validated just before; a cycle here cannot
		// happen. Emit the summary without per-LUT detail regardless —
		// instrumentation must not fail the mapping.
		levels = nil
	}
	depth := 0
	now := time.Now()
	for i, l := range ckt.LUTs {
		lv := 0
		if levels != nil {
			lv = levels[i]
		}
		if lv > depth {
			depth = lv
		}
		t.o.Observe(obs.Event{Kind: obs.KindLUT, Time: now, Tree: l.Name, N: len(l.Inputs), Depth: lv})
	}
	t.o.Observe(obs.Event{Kind: obs.KindMapEnd, Time: time.Now(), Cost: ckt.Count(), Depth: depth, N: trees})
}
