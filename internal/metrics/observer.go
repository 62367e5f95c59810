package metrics

import (
	"sync"
	"time"

	"chortle/internal/obs"
)

// standardPhases are the pipeline phases the mapper emits today; the
// bridge pre-creates one duration histogram per phase so the per-event
// path is a read-only map hit. Unknown phases (future pipeline stages)
// fall back to a locked get-or-create — correctness over speed for
// names the bridge has never seen.
var standardPhases = []string{
	"prepare", "forest", "solve", "reconstruct", "finalize", "repack", "dup-search",
}

// Observer bridges the internal/obs event stream into a metrics
// Registry: counters for solves, memo hits, budget trips, degraded
// trees and accepted duplications; duration histograms for phases,
// per-tree solves and whole runs; gauges for the last run's circuit
// shape. It composes with other sinks through obs.Multi, tolerates
// concurrent emission (the parallel pipeline emits from workers), and
// its Observe path performs no allocation for any event the mapper
// emits — pinned by TestObserverZeroAlloc.
//
// When a RuntimeSampler is attached (AttachRuntimeSampler or
// NewObserverWithRuntime), map brackets additionally snapshot the Go
// runtime, recording per-run GC pause, GC cycle and allocation deltas.
type Observer struct {
	reg *Registry

	maps       *Counter
	mapWall    *Histogram
	phaseMu    sync.RWMutex
	phaseHists map[string]*Histogram
	phaseTot   map[string]*Counter

	solves     *Counter
	solveDur   *Histogram
	workUnits  *Counter
	memoHits   *Counter
	budgetHits *Counter
	degraded   *Counter
	dups       *Counter
	luts       *Counter

	lastLUTs  *Gauge
	lastDepth *Gauge
	lastTrees *Gauge
	lastK     *Gauge

	cutsKept      *Counter
	cutsDominated *Counter
	cutEvictions  *Counter
	areaRounds    *Counter

	arenaCount *Gauge
	arenaBytes *Gauge

	// runStart supports the whole-run wall histogram without trusting
	// wall arithmetic across interleaved runs: brackets nest (the
	// duplication search maps inside its own bracket), so only the
	// outermost pair is timed.
	runMu    sync.Mutex
	runDepth int
	runStart time.Time

	sampler *RuntimeSampler
}

// NewObserver builds the bridge over reg, creating every metric series
// it will ever touch up front.
func NewObserver(reg *Registry) *Observer {
	o := &Observer{
		reg:           reg,
		maps:          reg.Counter("chortle_maps_total", "Completed mapping runs."),
		mapWall:       reg.Histogram("chortle_map_wall_seconds", "Wall time of whole mapping runs.", nil),
		phaseHists:    make(map[string]*Histogram, len(standardPhases)),
		phaseTot:      make(map[string]*Counter, len(standardPhases)),
		solves:        reg.Counter("chortle_tree_solves_total", "Per-tree DP solves executed."),
		solveDur:      reg.Histogram("chortle_solve_duration_seconds", "Wall time of per-tree DP solves.", nil),
		workUnits:     reg.Counter("chortle_work_units_total", "Governor-metered DP search work units."),
		memoHits:      reg.Counter("chortle_memo_hits_total", "Trees that reused another tree's DP solve."),
		budgetHits:    reg.Counter("chortle_budget_trips_total", "Solves that exhausted their search budget."),
		degraded:      reg.Counter("chortle_degraded_trees_total", "Trees remapped with bin packing after budget exhaustion."),
		dups:          reg.Counter("chortle_dup_accepted_total", "Profitable duplications committed by the cost-aware search."),
		luts:          reg.Counter("chortle_luts_emitted_total", "Lookup tables emitted across all runs."),
		lastLUTs:      reg.Gauge("chortle_last_luts", "LUT count of the last completed run."),
		lastDepth:     reg.Gauge("chortle_last_depth", "Circuit depth of the last completed run."),
		lastTrees:     reg.Gauge("chortle_last_trees", "Tree count of the last completed run."),
		lastK:         reg.Gauge("chortle_last_k", "LUT input count (K) of the last run started."),
		cutsKept:      reg.Counter("chortle_cuts_kept_total", "Cuts retained across priority lists by the cut engine."),
		cutsDominated: reg.Counter("chortle_cuts_dominated_total", "Candidate cuts removed by dominance pruning."),
		cutEvictions:  reg.Counter("chortle_cut_evictions_total", "Non-dominated cuts evicted beyond the priority-list bound."),
		areaRounds:    reg.Counter("chortle_area_flow_rounds_total", "Area-recovery iterations run by the cut engine."),
		arenaCount:    reg.Gauge("chortle_arena_count", "DP arenas checked out by the last run."),
		arenaBytes:    reg.Gauge("chortle_arena_bytes", "DP arena slab bytes held by the last run."),
	}
	for _, p := range standardPhases {
		o.phaseHists[p] = reg.Histogram("chortle_phase_duration_seconds",
			"Wall time of mapper pipeline phases.", nil, Label{"phase", p})
		o.phaseTot[p] = reg.Counter("chortle_phase_seconds_total",
			"Cumulative wall time per mapper pipeline phase.", Label{"phase", p})
	}
	reg.GaugeFunc("chortle_memo_hit_rate", "Fraction of trees that skipped their DP solve (hits / (hits + solves)).",
		func() float64 {
			h, s := o.memoHits.Value(), o.solves.Value()
			if h+s == 0 {
				return 0
			}
			return h / (h + s)
		})
	return o
}

// NewObserverWithRuntime is NewObserver plus an attached
// RuntimeSampler registered on the same registry.
func NewObserverWithRuntime(reg *Registry) *Observer {
	o := NewObserver(reg)
	o.AttachRuntimeSampler(NewRuntimeSampler(reg))
	return o
}

// AttachRuntimeSampler makes map brackets snapshot the Go runtime
// through s. Attach before the first observed run.
func (o *Observer) AttachRuntimeSampler(s *RuntimeSampler) { o.sampler = s }

// Registry returns the registry the bridge populates.
func (o *Observer) Registry() *Registry { return o.reg }

// phaseSeries returns the histogram/total pair for a phase, creating
// the series on first sight of a non-standard phase name.
func (o *Observer) phaseSeries(phase string) (*Histogram, *Counter) {
	o.phaseMu.RLock()
	h, t := o.phaseHists[phase], o.phaseTot[phase]
	o.phaseMu.RUnlock()
	if h != nil {
		return h, t
	}
	o.phaseMu.Lock()
	defer o.phaseMu.Unlock()
	if h = o.phaseHists[phase]; h != nil {
		return h, o.phaseTot[phase]
	}
	h = o.reg.Histogram("chortle_phase_duration_seconds",
		"Wall time of mapper pipeline phases.", nil, Label{"phase", phase})
	t = o.reg.Counter("chortle_phase_seconds_total",
		"Cumulative wall time per mapper pipeline phase.", Label{"phase", phase})
	o.phaseHists[phase] = h
	o.phaseTot[phase] = t
	return h, t
}

// Observe folds one mapping event into the registry.
func (o *Observer) Observe(e obs.Event) {
	switch e.Kind {
	case obs.KindMapStart:
		o.lastK.Set(float64(e.K))
		o.runMu.Lock()
		o.runDepth++
		if o.runDepth == 1 {
			o.runStart = e.Time
		}
		o.runMu.Unlock()
		if o.sampler != nil {
			o.sampler.Begin()
		}
	case obs.KindMapEnd:
		o.maps.Inc()
		o.lastLUTs.Set(float64(e.Cost))
		o.lastDepth.Set(float64(e.Depth))
		o.lastTrees.Set(float64(e.N))
		o.runMu.Lock()
		if o.runDepth > 0 {
			o.runDepth--
			if o.runDepth == 0 && !o.runStart.IsZero() && !e.Time.IsZero() {
				o.mapWall.Observe(e.Time.Sub(o.runStart))
			}
		}
		o.runMu.Unlock()
		if o.sampler != nil {
			o.sampler.End()
		}
	case obs.KindPhaseEnd:
		h, t := o.phaseSeries(e.Phase)
		d := time.Duration(e.Units)
		h.Observe(d)
		t.Add(d.Seconds())
	case obs.KindTreeSolve:
		o.solves.Inc()
		o.workUnits.Add(float64(e.Units))
		if e.Dur > 0 {
			o.solveDur.Observe(e.Dur)
		}
	case obs.KindMemoHit:
		o.memoHits.Inc()
	case obs.KindBudgetExhausted:
		o.budgetHits.Inc()
	case obs.KindTreeDegraded:
		o.degraded.Inc()
	case obs.KindLUT:
		o.luts.Inc()
	case obs.KindArenaStats:
		o.arenaCount.Set(float64(e.N))
		o.arenaBytes.Set(float64(e.Units))
	case obs.KindDupAccepted:
		o.dups.Inc()
	case obs.KindCutsEnumerated:
		o.cutsKept.Add(float64(e.Units))
		o.cutsDominated.Add(float64(e.Cost))
	case obs.KindCutListEvict:
		o.cutEvictions.Add(float64(e.Units))
	case obs.KindAreaFlowRound:
		o.areaRounds.Inc()
	}
}
