package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chortle"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// perLayerMetrics are the traced run's metrics. Every workload reports
// all of them; a layer the workload never enters reads 0. The *_ms
// layers are mean self times per map in reference milliseconds and,
// with unattributed_ms, add up to trace.map_total_ms. Serving runs time
// blif.parse and lut.serialize on the same requests in process after the
// window, two at a time, since chortled's spans do not separate them.
// The comments say which
// end-to-end metric each group should move, and on which workloads;
// elsewhere the prediction is no change.
var perLayerMetrics = []metricSpec{
	// internal/blif: lat_ms_p50 and maps_per_s on serve_repeat and
	// paper_tree (small on dag_cut).
	{"blif.parse_ms", "ms"},
	{"blif.parse_mb_s", "MB/s"},
	{"blif.parse_allocs", "count"},
	// Engine phases, internal/core and internal/forest (prepare is
	// shared with the cut engine): lat_geomean_ms on paper_tree and
	// dag_cut. solve also moves lat_ms_p95 on paper_tree, and
	// reconstruct and finalize lat_ms_p50 on paper_tree and serve_repeat.
	{"engine.prepare_ms", "ms"},
	{"engine.forest_ms", "ms"},
	{"engine.solve_ms", "ms"},
	{"engine.reconstruct_ms", "ms"},
	{"engine.finalize_ms", "ms"},
	// internal/cut: lat_geomean_ms and lat_ms_p95 on dag_cut.
	{"engine.cuts_ms", "ms"},
	{"engine.select_ms", "ms"},
	{"engine.emit_ms", "ms"},
	// MapCtx outside any phase.
	{"engine.unphased_ms", "ms"},
	// Engine allocation, core and cut: peak_rss_mb and lat_ms_p95 on
	// dag_cut and serve_fresh. Allocation counts are in process only.
	{"engine.allocs_per_map", "count"},
	{"engine.mb_per_map", "MB"},
	// Tree DP effort: lat_geomean_ms and lat_ms_p95 on paper_tree.
	{"core.solves", "count"},
	{"core.work_units", "count"},
	{"core.memo_hit_rate", "frac"},
	// Cut enumeration effort: lat_geomean_ms and lat_ms_p95 on dag_cut.
	{"cut.cuts_per_gate", "ratio"},
	{"cut.dominated_frac", "frac"},
	// internal/lut: lat_ms_p50 and maps_per_s on serve_repeat and
	// paper_tree.
	{"lut.serialize_ms", "ms"},
	{"lut.serialize_mb_s", "MB/s"},
	// internal/shapecache: the hit rate moves lat_ms_p50 and maps_per_s
	// on serve_repeat; the cold/warm speedups are measured per input in
	// paper_tree's traced run, so warm-slower-than-cold inputs show;
	// evictions and entries move lat_ms_p95 and peak_rss_mb on
	// serve_fresh.
	{"shapecache.hit_rate", "frac"},
	{"shapecache.warm_speedup_geomean", "ratio"},
	{"shapecache.warm_speedup_min", "ratio"},
	{"shapecache.evictions", "count"},
	{"shapecache.entries", "count"},
	// cmd/chortled admission: slo_frac and lat_ms_p95 on serve_fresh.
	{"srv.admission_ms", "ms"},
	{"srv.queue_ms", "ms"},
	// cmd/chortled work: lat_ms_p50 on serve_repeat and serve_fresh.
	// srv.unattributed is the request span's own time, which holds the
	// BLIF parse between the queue and solve spans.
	{"srv.solve_ms", "ms"},
	{"srv.write_ms", "ms"},
	{"srv.unattributed_ms", "ms"},
	// Refusals: slo_frac and lat_ms_p95 on serve_fresh.
	{"srv.refused_frac", "frac"},
	{"srv.refused.queue-full", "count"},
	{"srv.refused.codel", "count"},
	{"srv.refused.deadline-expired", "count"},
	// chortle/client: lat_ms_p50 on serve_repeat, slo_frac on serve_fresh.
	{"client.overhead_ms", "ms"},
	{"client.attempts_per_map", "ratio"},
	// The run's own validity, moving nothing: time no span covers, the
	// mean traced total, spans cut to nest (clock skew between
	// processes), tracing's cost on lat_ms_p50, the share of maps whose
	// engine:<phase> spans survived (chortled keeps only 512 events per
	// request), the open loop's lateness, and the machine's speed.
	{"unattributed_ms", "ms"},
	{"trace.map_total_ms", "ms"},
	{"trace.trimmed_spans_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.engine_span_coverage", "frac"},
	{"load.late_ms_p99", "ms"},
	{"machine.speed", "ratio"},
}

// layerMetrics builds a traced run's report from its two halves: plain
// (untraced, allocation-metered) and traced.
func layerMetrics(plain, traced *session) map[string]metric {
	got := map[string]metric{}
	for _, s := range []*session{plain, traced} {
		for k, v := range s.layers {
			got[k] = v
		}
	}
	// Span self times, as means per traced map.
	sums := map[string]time.Duration{}
	var total time.Duration
	var inBytes, outBytes, withEngine, spans, trimmed int
	for _, t := range traced.traces {
		for l, d := range t.layers {
			sums[l] += d
		}
		total += t.total
		spans += t.spans
		trimmed += t.trimmed
		inBytes += t.inBytes
		outBytes += t.outBytes
		if t.hasEngine {
			withEngine++
		}
	}
	n := float64(len(traced.traces))
	for l, d := range sums {
		got[l+"_ms"] = metric{ratio(durMS(d), n), "ms"}
	}
	if inBytes > 0 {
		got["blif.parse_mb_s"] = metric{ratio(float64(inBytes)/1e6, sums["blif.parse"].Seconds()), "MB/s"}
		got["lut.serialize_mb_s"] = metric{ratio(float64(outBytes)/1e6, sums["lut.serialize"].Seconds()), "MB/s"}
	}
	got["trace.map_total_ms"] = metric{ratio(durMS(total), n), "ms"}
	got["trace.trimmed_spans_pct"] = metric{100 * ratio(float64(trimmed), float64(spans)), "%"}
	got["trace.engine_span_coverage"] = metric{ratio(float64(withEngine), n), "frac"}
	got["machine.speed"] = metric{traced.speed(), "ratio"}
	p50 := func(s *session) float64 { return endToEnd(s, false)["lat_ms_p50"].Value }
	got["trace.overhead_pct"] = metric{(ratio(p50(traced), p50(plain)) - 1) * 100, "%"}
	var late []float64
	for _, s := range []*session{plain, traced} {
		if !s.openLoop {
			continue
		}
		for _, m := range s.maps {
			late = append(late, durMS(m.late))
		}
	}
	got["load.late_ms_p99"] = metric{percentile(sortedCopy(late), 0.99), "ms"}

	out := make(map[string]metric, len(perLayerMetrics))
	for _, spec := range perLayerMetrics {
		m := got[spec.name]
		m.Unit = spec.unit
		out[spec.name] = m
	}
	return out
}

// writeTraceFile merges the kept span sets into one Chrome trace_event
// file for Perfetto (ui.perfetto.dev, "Open trace file").
func writeTraceFile(dir string, sets [][]chortle.Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var spans []chortle.Span
	for _, set := range sets {
		spans = append(spans, set...)
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := chortle.WriteChromeTraceMulti(f, spans, nil); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
