package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"chortle"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the value at rank ceil(p*n), so it is always an observed sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// smoothPercentile is the mean of the sorted values ranked within 2.5%
// of n either side of the p-quantile's rank. A single order statistic
// jumps between the latency clusters of a mixed workload (small and
// large designs, two engines) from run to run; the local mean does not,
// and equals the percentile wherever the distribution is smooth.
func smoothPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1 // 0-based
	half := int(0.025 * float64(n))
	lo, hi := max(0, rank-half), min(n-1, rank+half)
	sum := 0.0
	for _, x := range sorted[lo : hi+1] {
		sum += x
	}
	return sum / float64(hi-lo+1)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// geomean is the geometric mean of positive values; zero when xs is
// empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method, which extrapolates for tiny samples): the
// definition the benchmark's spread rule is stated in. One value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// breakdown attributes one map's trace to layers: every instant of a
// root span's interval is charged to the innermost span covering it, so
// a layer's self time is its span minus what its children cover, and
// the layers partition the root's duration. The root is the span whose
// parent is not in the set, and the total is its duration. A child is
// clipped to its parent; a child overlapping an earlier sibling (hedged
// attempts, or timestamps taken in two processes) starts where that
// sibling ended. Trimmed counts the spans those two rules shortened —
// zero for a trace whose spans nest cleanly.
func breakdown(spans []chortle.Span) (total time.Duration, trimmed int, layers map[string]time.Duration) {
	ids := make(map[chortle.SpanID]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	kids := make(map[chortle.SpanID][]chortle.Span, len(spans))
	var roots []chortle.Span
	for _, s := range spans {
		// Compare wall clocks only: spans decoded from another process
		// carry no monotonic reading.
		s.Start, s.End = s.Start.Round(0), s.End.Round(0)
		if ids[s.Parent] {
			kids[s.Parent] = append(kids[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	layers = make(map[string]time.Duration)
	var walk func(s chortle.Span, a, b time.Time)
	walk = func(s chortle.Span, a, b time.Time) {
		if b.Sub(a) < s.Duration() {
			trimmed++
		}
		ks := kids[s.ID]
		sort.SliceStable(ks, func(i, j int) bool { return ks[i].Start.Before(ks[j].Start) })
		cursor := a
		var covered time.Duration
		for _, k := range ks {
			ka, kb := latest(k.Start, cursor), earliest(k.End, b)
			if kb.Before(ka) {
				kb = ka
			}
			covered += kb.Sub(ka)
			cursor = latest(cursor, kb)
			walk(k, ka, kb)
		}
		layers[layerOf(s)] += b.Sub(a) - covered
	}
	for _, r := range roots {
		total += r.Duration()
		walk(r, r.Start, r.End)
	}
	return total, trimmed, layers
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earliest(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// layerOf names the layer a span's self time belongs to, in the
// ROADMAP's layer vocabulary with ":" spelled ".". In-process maps are
// traced by the benchmark itself (root, blif.parse, map, lut.serialize);
// serving maps by the client and chortled.
func layerOf(s chortle.Span) string {
	if phase, ok := strings.CutPrefix(s.Name, "engine:"); ok {
		return "engine." + phase
	}
	switch s.Process {
	case "client":
		return "client.overhead"
	case "chortled":
		if s.Name == "request" {
			return "srv.unattributed"
		}
		return "srv." + s.Name
	}
	switch s.Name {
	case "blif.parse", "lut.serialize":
		return s.Name
	case "map":
		return "engine.unphased"
	}
	return "unattributed"
}
