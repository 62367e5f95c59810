package cut

import (
	"time"

	"chortle/internal/lut"
	"chortle/internal/obs"
)

// tracer is the cut engine's emission shim over obs.Observer, the same
// discipline as the tree engine's: every method is a single nil check
// when no observer is attached, and observation never influences the
// mapping — the emitted circuit is byte-identical either way.
type tracer struct {
	o obs.Observer
}

var noopDone = func() {}

// phase opens a pipeline phase and returns the closure that closes it,
// carrying the phase's wall time on the end event.
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

// circuit closes a run: one KindLUT event per emitted table and the
// KindMapEnd summary (N carries the selected-cut count in place of the
// tree engine's tree count).
func (t tracer) circuit(ckt *lut.Circuit, roots int) {
	if t.o == nil {
		return
	}
	levels, err := ckt.Levels()
	if err != nil {
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
	// The end event reuses the captured now: a second time.Now() here
	// would let the map-end span close after its last KindLUT child.
	t.o.Observe(obs.Event{Kind: obs.KindMapEnd, Time: now, Cost: ckt.Count(), Depth: depth, N: roots})
}

// cutsEnumerated closes the enumeration pass: gates enumerated over,
// cuts kept across all priority lists, candidates removed by dominance
// pruning, and non-dominated cuts evicted beyond the priority bound
// (the eviction count rides its own event so operators can alert on
// bound pressure separately).
func (t tracer) cutsEnumerated(gates int, kept int64, dominated int, evicted int64) {
	if t.o == nil {
		return
	}
	now := time.Now()
	t.o.Observe(obs.Event{Kind: obs.KindCutsEnumerated, Time: now, N: gates, Units: kept, Cost: dominated})
	if evicted > 0 {
		t.o.Observe(obs.Event{Kind: obs.KindCutListEvict, Time: now, Units: evicted})
	}
}

// areaFlowRound closes one area-recovery iteration with the cover size
// it produced.
func (t tracer) areaFlowRound(round, cover int) {
	if t.o == nil {
		return
	}
	t.o.Observe(obs.Event{Kind: obs.KindAreaFlowRound, Time: time.Now(), N: round, Cost: cover})
}
