package main

import (
	"math"
	"testing"
	"time"

	"chortle"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSmoothPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	// Ranks 95..105 around the median (rank 100), mean 100.
	if got := smoothPercentile(xs, 0.5); got != 100 {
		t.Errorf("smoothPercentile(1..200, 0.5) = %v, want 100", got)
	}
	// At the top the window is cut at the largest value.
	if got := smoothPercentile(xs, 1); got != 197.5 {
		t.Errorf("smoothPercentile(1..200, 1) = %v, want 197.5 (mean of 195..200)", got)
	}
	if got := smoothPercentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("smoothPercentile of one value = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
}

// The expectations are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// span builds a span on a millisecond axis.
func span(id, parent byte, process, name string, startMS, endMS int) chortle.Span {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s := chortle.Span{
		ID: chortle.SpanID{id}, Process: process, Name: name,
		Start: base.Add(time.Duration(startMS) * time.Millisecond),
		End:   base.Add(time.Duration(endMS) * time.Millisecond),
	}
	if parent != 0 {
		s.Parent = chortle.SpanID{parent}
	}
	return s
}

func TestBreakdownSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, c := range []struct {
		name    string
		spans   []chortle.Span
		total   time.Duration
		trimmed int
		want    map[string]time.Duration
	}{{
		name: "nested",
		spans: []chortle.Span{
			span(1, 0, "bench", "request", 0, 10),
			span(2, 1, "bench", "blif.parse", 0, 2),
			span(3, 1, "bench", "map", 2, 9),
			span(4, 3, "bench", "engine:solve", 3, 7),
			span(5, 1, "bench", "lut.serialize", 9, 10),
		},
		total: ms(10),
		want: map[string]time.Duration{
			"unattributed": 0, "blif.parse": ms(2), "engine.unphased": ms(3),
			"engine.solve": ms(4), "lut.serialize": ms(1),
		},
	}, {
		// A hedged attempt overlaps the first: the overlap counts once,
		// for the attempt that started first.
		name: "overlapping children",
		spans: []chortle.Span{
			span(1, 0, "client", "map", 0, 10),
			span(2, 1, "client", "attempt", 1, 5),
			span(3, 1, "client", "hedge", 3, 8),
			span(4, 3, "chortled", "request", 4, 7),
		},
		total: ms(10), trimmed: 2,
		want: map[string]time.Duration{"client.overhead": ms(8), "srv.unattributed": ms(2)},
	}, {
		// A child running past its parent is clipped to it.
		name: "child past parent",
		spans: []chortle.Span{
			span(1, 0, "chortled", "request", 0, 4),
			span(2, 1, "chortled", "solve", 1, 6),
			span(3, 2, "chortled", "engine:cuts", 2, 3),
		},
		total: ms(4), trimmed: 1,
		want: map[string]time.Duration{"srv.unattributed": ms(1), "srv.solve": ms(2), "engine.cuts": ms(1)},
	}} {
		t.Run(c.name, func(t *testing.T) {
			total, trimmed, layers := breakdown(c.spans)
			if total != c.total || trimmed != c.trimmed {
				t.Errorf("total %v trimmed %d, want %v and %d", total, trimmed, c.total, c.trimmed)
			}
			var sum time.Duration
			for l, d := range layers {
				sum += d
				if d != c.want[l] {
					t.Errorf("layer %s = %v, want %v", l, d, c.want[l])
				}
			}
			if sum != total {
				t.Errorf("layers sum to %v, total %v", sum, total)
			}
		})
	}
}

func TestBreakdownMixedClocks(t *testing.T) {
	// Spans recorded in this process carry a monotonic reading; spans
	// decoded from another process do not. Both must compare on one clock.
	now := time.Now()
	root := chortle.Span{ID: chortle.SpanID{1}, Process: "bench", Name: "request", Start: now, End: now.Add(10 * time.Millisecond)}
	child := chortle.Span{ID: chortle.SpanID{2}, Parent: root.ID, Process: "chortled", Name: "request",
		Start: now.Add(2 * time.Millisecond).Round(0), End: now.Add(8 * time.Millisecond).Round(0)}
	total, trimmed, layers := breakdown([]chortle.Span{root, child})
	if total != 10*time.Millisecond || trimmed != 0 {
		t.Fatalf("total %v trimmed %d", total, trimmed)
	}
	if layers["unattributed"] != 4*time.Millisecond || layers["srv.unattributed"] != 6*time.Millisecond {
		t.Errorf("layers %v", layers)
	}
}
