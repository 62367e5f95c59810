package obs

import (
	"time"

	"chortle/internal/lut"
)

// EngineTracer is the mapping engines' emission shim over an Observer:
// the events every engine emits (map start, phases, and the per-LUT and
// map-end events that close a run). Each engine embeds it in its own
// tracer beside its engine-specific events. Every method is a no-op
// when no observer is attached — a single nil check, no time.Now call,
// no event construction, no allocation — which is what lets the engines
// leave observability compiled into the hot path. With an observer
// attached, every emission is read-only with respect to the mapping:
// sinks see data, they never influence a search decision, so the
// emitted circuit is byte-identical either way.
type EngineTracer struct {
	Observer // nil when the run is unobserved
}

// On reports whether an observer is attached; callers use it to skip
// preparing data that only events consume.
func (t EngineTracer) On() bool { return t.Observer != nil }

// noopDone is the pre-allocated closure Phase returns when disabled.
var noopDone = func() {}

// Phase opens a pipeline phase and returns the closure that closes it.
// The end event carries the phase's wall time, so aggregation needs no
// start/end pairing.
func (t EngineTracer) Phase(name string) func() {
	if t.Observer == nil {
		return noopDone
	}
	start := time.Now()
	t.Observe(Event{Kind: KindPhaseStart, Time: start, Phase: name})
	return func() {
		now := time.Now()
		t.Observe(Event{Kind: KindPhaseEnd, Time: now, Phase: name, Units: int64(now.Sub(start))})
	}
}

// MapStart opens a run over a network of the given node count at K.
func (t EngineTracer) MapStart(k, nodes int) {
	if t.Observer == nil {
		return
	}
	t.Observe(Event{Kind: KindMapStart, Time: time.Now(), K: k, N: nodes})
}

// Circuit closes a run: one KindLUT event per emitted lookup table
// (input count and level) and the KindMapEnd summary, whose N is the
// engine's unit of work (trees for the tree engine, selected cuts for
// the cut engine). The level computation runs only on an observed map.
func (t EngineTracer) Circuit(ckt *lut.Circuit, n int) {
	if t.Observer == nil {
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
		t.Observe(Event{Kind: KindLUT, Time: now, Tree: l.Name, N: len(l.Inputs), Depth: lv})
	}
	// The end event reuses the captured now: a second time.Now() here
	// would let the map-end span close after its last KindLUT child.
	t.Observe(Event{Kind: KindMapEnd, Time: now, Cost: ckt.Count(), Depth: depth, N: n})
}
