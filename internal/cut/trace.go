package cut

import (
	"time"

	"chortle/internal/obs"
)

// tracer is the cut engine's emission shim: the events every engine
// emits come from obs.EngineTracer, and the methods below add the cut
// engine's own (enumeration and area-recovery rounds), under the same
// discipline — a single nil check when no observer is attached, and
// observation never influences the mapping.
type tracer struct {
	obs.EngineTracer
}

func newTracer(o obs.Observer) tracer { return tracer{obs.EngineTracer{Observer: o}} }

// cutsEnumerated closes the enumeration pass: gates enumerated over,
// cuts kept across all priority lists, candidates removed by dominance
// pruning, and non-dominated cuts evicted beyond the priority bound
// (the eviction count rides its own event so operators can alert on
// bound pressure separately).
func (t tracer) cutsEnumerated(gates int, kept int64, dominated int, evicted int64) {
	if t.Observer == nil {
		return
	}
	now := time.Now()
	t.Observe(obs.Event{Kind: obs.KindCutsEnumerated, Time: now, N: gates, Units: kept, Cost: dominated})
	if evicted > 0 {
		t.Observe(obs.Event{Kind: obs.KindCutListEvict, Time: now, Units: evicted})
	}
}

// areaFlowRound closes one area-recovery iteration with the cover size
// it produced.
func (t tracer) areaFlowRound(round, cover int) {
	if t.Observer == nil {
		return
	}
	t.Observe(obs.Event{Kind: obs.KindAreaFlowRound, Time: time.Now(), N: round, Cost: cover})
}
