package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PhaseStat is the aggregated wall time of one pipeline phase.
type PhaseStat struct {
	Name string
	// Wall is the summed wall time of every pass through the phase
	// (cost-aware duplication maps the network more than once).
	Wall time.Duration
	// Count is how many times the phase ran.
	Count int
}

// Report is the aggregate view of one mapping run's event stream: what
// -stats prints, its phase times from the same run as its wall time.
// Build one with Aggregate or Collector.Report.
type Report struct {
	// K and Wall come from the map-start/map-end bracket; for a
	// cost-aware duplication run they span the outermost bracket.
	K    int
	Wall time.Duration

	// LUTs, Depth and Trees describe the final circuit (last map-end).
	LUTs  int
	Depth int
	Trees int

	// Phases lists pipeline phases in first-seen order with their
	// summed wall times.
	Phases []PhaseStat

	// Solves counts tree DP solves; WorkUnits sums their metered search
	// effort. MemoHits counts trees that reused another tree's solve.
	Solves    int
	WorkUnits int64
	MemoHits  int

	// SolveP50/P95/P99 are percentiles of the per-tree DP solve wall
	// times, over the solves that carried a duration (TimedSolves of
	// them). Zero when no solve was timed — tree-solve events emitted
	// before durations existed, or replayed from an old trace.
	SolveP50    time.Duration
	SolveP95    time.Duration
	SolveP99    time.Duration
	TimedSolves int

	// BudgetTrips counts solves that exhausted their search budget;
	// Degraded lists the trees remapped with bin packing as a result.
	BudgetTrips int
	Degraded    []string

	// DupAccepted counts duplications committed by the cost-aware
	// search (zero for plain Map).
	DupAccepted int

	// Cut-engine detail (zero for the tree engines). CutGates is the
	// gate count enumerated over, CutsKept the cuts retained across all
	// priority lists, CutsDominated the candidates removed by dominance
	// pruning, CutEvictions the non-dominated cuts dropped beyond the
	// priority bound, and AreaRounds the area-recovery iterations run.
	CutGates      int
	CutsKept      int64
	CutsDominated int
	CutEvictions  int64
	AreaRounds    int

	// ArenaCount and ArenaBytes describe the run's DP arena usage.
	ArenaCount int
	ArenaBytes int64

	// LUTInputHist histograms the emitted LUTs by used input count,
	// LUTDepthHist by level, TreeCostHist the mapped trees by their
	// per-tree LUT cost.
	LUTInputHist map[int]int
	LUTDepthHist map[int]int
	TreeCostHist map[int]int
}

// MemoHitRate returns hits / (hits + solves): the fraction of trees
// that skipped their DP solve. Zero when nothing was mapped.
func (r *Report) MemoHitRate() float64 {
	total := r.MemoHits + r.Solves
	if total == 0 {
		return 0
	}
	return float64(r.MemoHits) / float64(total)
}

// Aggregate folds an event stream into a Report.
func Aggregate(events []Event) *Report {
	r := &Report{
		LUTInputHist: make(map[int]int),
		LUTDepthHist: make(map[int]int),
		TreeCostHist: make(map[int]int),
	}
	phaseIdx := make(map[string]int)
	var start, end time.Time
	var solveDurs []time.Duration
	for _, e := range events {
		switch e.Kind {
		case KindMapStart:
			if start.IsZero() {
				start = e.Time
				r.K = e.K
			}
		case KindMapEnd:
			end = e.Time
			r.LUTs, r.Depth, r.Trees = e.Cost, e.Depth, e.N
		case KindPhaseEnd:
			i, ok := phaseIdx[e.Phase]
			if !ok {
				i = len(r.Phases)
				phaseIdx[e.Phase] = i
				r.Phases = append(r.Phases, PhaseStat{Name: e.Phase})
			}
			r.Phases[i].Wall += time.Duration(e.Units)
			r.Phases[i].Count++
		case KindTreeSolve:
			r.Solves++
			r.WorkUnits += e.Units
			r.TreeCostHist[e.Cost]++
			if e.Dur > 0 {
				solveDurs = append(solveDurs, e.Dur)
			}
		case KindMemoHit:
			r.MemoHits++
			r.TreeCostHist[e.Cost]++
		case KindBudgetExhausted:
			r.BudgetTrips++
		case KindTreeDegraded:
			r.Degraded = append(r.Degraded, e.Tree)
			r.TreeCostHist[e.Cost]++
		case KindLUT:
			r.LUTInputHist[e.N]++
			r.LUTDepthHist[e.Depth]++
		case KindArenaStats:
			r.ArenaCount += e.N
			r.ArenaBytes += e.Units
		case KindDupAccepted:
			r.DupAccepted++
		case KindCutsEnumerated:
			r.CutGates += e.N
			r.CutsKept += e.Units
			r.CutsDominated += e.Cost
		case KindCutListEvict:
			r.CutEvictions += e.Units
		case KindAreaFlowRound:
			if e.N > r.AreaRounds {
				r.AreaRounds = e.N
			}
		}
	}
	if !start.IsZero() && !end.IsZero() {
		r.Wall = end.Sub(start)
	}
	if len(solveDurs) > 0 {
		sort.Slice(solveDurs, func(i, j int) bool { return solveDurs[i] < solveDurs[j] })
		r.TimedSolves = len(solveDurs)
		r.SolveP50 = percentile(solveDurs, 0.50)
		r.SolveP95 = percentile(solveDurs, 0.95)
		r.SolveP99 = percentile(solveDurs, 0.99)
	}
	return r
}

// percentile reads the p-quantile from a sorted slice using the
// nearest-rank method (the value at ceil(p*n), 1-indexed) — exact for
// the small populations a single run produces, and it always returns an
// observed value rather than an interpolation.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p * float64(len(sorted)))
	if float64(rank) < p*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Format renders the report as the human-readable block -stats prints.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mapping: %d LUTs (K=%d), depth %d, %d trees in %s\n",
		r.LUTs, r.K, r.Depth, r.Trees, r.Wall.Round(time.Microsecond))
	if len(r.Phases) > 0 {
		fmt.Fprintf(&sb, "phases:\n")
		for _, p := range r.Phases {
			fmt.Fprintf(&sb, "  %-12s %10s", p.Name, p.Wall.Round(time.Microsecond))
			if p.Count > 1 {
				fmt.Fprintf(&sb, "  (x%d)", p.Count)
			}
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "search: %d solves, %d work units", r.Solves, r.WorkUnits)
	if r.MemoHits+r.Solves > 0 {
		fmt.Fprintf(&sb, ", %d memo hits (%.1f%% hit rate)", r.MemoHits, 100*r.MemoHitRate())
	}
	sb.WriteByte('\n')
	if r.TimedSolves > 0 {
		fmt.Fprintf(&sb, "solve times: p50 %s, p95 %s, p99 %s (%d timed)\n",
			r.SolveP50.Round(time.Microsecond), r.SolveP95.Round(time.Microsecond),
			r.SolveP99.Round(time.Microsecond), r.TimedSolves)
	}
	if r.BudgetTrips > 0 || len(r.Degraded) > 0 {
		fmt.Fprintf(&sb, "budget: %d trips, %d trees degraded to bin packing", r.BudgetTrips, len(r.Degraded))
		if n := len(r.Degraded); n > 0 {
			show := r.Degraded
			if n > 8 {
				show = show[:8]
			}
			fmt.Fprintf(&sb, " (%s", strings.Join(show, ", "))
			if n > 8 {
				fmt.Fprintf(&sb, ", +%d more", n-8)
			}
			sb.WriteString(")")
		}
		sb.WriteByte('\n')
	}
	if r.DupAccepted > 0 {
		fmt.Fprintf(&sb, "duplication: %d candidates accepted\n", r.DupAccepted)
	}
	if r.CutsKept > 0 {
		fmt.Fprintf(&sb, "cuts: %d kept over %d gates, %d dominated, %d evicted, %d area-flow rounds\n",
			r.CutsKept, r.CutGates, r.CutsDominated, r.CutEvictions, r.AreaRounds)
	}
	if r.ArenaCount > 0 {
		fmt.Fprintf(&sb, "arenas: %d checked out, %d slab bytes\n", r.ArenaCount, r.ArenaBytes)
	}
	if len(r.LUTInputHist) > 0 {
		fmt.Fprintf(&sb, "LUT inputs: %s\n", histLine(r.LUTInputHist))
	}
	if len(r.LUTDepthHist) > 0 {
		fmt.Fprintf(&sb, "LUT levels: %s\n", histLine(r.LUTDepthHist))
	}
	if len(r.TreeCostHist) > 0 {
		fmt.Fprintf(&sb, "tree costs: %s\n", histLine(r.TreeCostHist))
	}
	return sb.String()
}

// histLine renders a small histogram as "1:12 2:34 ..." in key order.
func histLine(h map[int]int) string {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d:%d", k, h[k])
	}
	return strings.Join(parts, " ")
}
