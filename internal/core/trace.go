package core

import (
	"time"

	"chortle/internal/obs"
)

// tracer is the tree engine's emission shim: the events every engine
// emits come from obs.EngineTracer, and the methods below add the tree
// engine's own (solves, memo hits, degradation, arenas, duplication),
// under the same discipline — a single nil check and no allocation when
// no observer is attached.
type tracer struct {
	obs.EngineTracer
}

func newTracer(o obs.Observer) tracer { return tracer{obs.EngineTracer{Observer: o}} }

// now is the tracer's clock: the zero time with no observer attached
// (no time.Now call on the disabled path), the wall clock otherwise.
// Solve sites read it before the DP so treeSolve can report a duration.
func (t tracer) now() time.Time {
	if t.Observer == nil {
		return time.Time{}
	}
	return time.Now()
}

// treeSolve records one completed tree DP solve, the work units its
// governor metered, and — when the caller bracketed the solve with
// t.now() — its wall time.
func (t tracer) treeSolve(tree string, units int64, cost int32, start time.Time) {
	if t.Observer == nil {
		return
	}
	now := time.Now()
	var d time.Duration
	if !start.IsZero() {
		d = now.Sub(start)
	}
	t.Observe(obs.Event{Kind: obs.KindTreeSolve, Time: now, Tree: tree, Units: units, Cost: int(cost), Dur: d})
}

// memoHit records a tree that reused the DP of a structurally identical
// tree instead of solving its own.
func (t tracer) memoHit(tree string, cost int32) {
	if t.Observer == nil {
		return
	}
	t.Observe(obs.Event{Kind: obs.KindMemoHit, Time: time.Now(), Tree: tree, Cost: int(cost)})
}

func (t tracer) budgetExhausted(tree string, limit int64) {
	if t.Observer == nil {
		return
	}
	t.Observe(obs.Event{Kind: obs.KindBudgetExhausted, Time: time.Now(), Tree: tree, Units: limit})
}

func (t tracer) treeDegraded(tree string, cost int32) {
	if t.Observer == nil {
		return
	}
	t.Observe(obs.Event{Kind: obs.KindTreeDegraded, Time: time.Now(), Tree: tree, Cost: int(cost)})
}

func (t tracer) arenaStats(count int, bytes int64) {
	if t.Observer == nil {
		return
	}
	t.Observe(obs.Event{Kind: obs.KindArenaStats, Time: time.Now(), N: count, Units: bytes})
}

func (t tracer) dupAccepted(node string) {
	if t.Observer == nil {
		return
	}
	t.Observe(obs.Event{Kind: obs.KindDupAccepted, Time: time.Now(), Tree: node})
}
