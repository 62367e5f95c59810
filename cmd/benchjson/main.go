// Command benchjson measures the Chortle mapper over the benchmark
// suite and writes the results as JSON — the repository's machine-
// readable performance trajectory file (BENCH_map.json). Each record
// carries the LUT count (a correctness anchor: it must never drift),
// the mapping wall time, the allocation profile per Map call, and —
// since schema v3 — the cross-run shape cache's cold-versus-warm wall
// time on the same circuit (readers of v2 reports ignore the extra
// field). Schema v4 added the engine dimension: each record names the
// mapping engine it measured, and the default run covers both the tree
// DP and the priority-cut engine, so the cut mapper's speed and LUT
// counts are gated alongside the paper algorithm's. The tree engine has
// one pipeline, so reports carry no options block, only the gomaxprocs
// worker count; readers ignore the parallel/memoize block that older v4
// files still have.
//
// Usage:
//
//	benchjson [-k 4] [-engines tree,cut] [-circuits des,rot] [-reps 5]
//	          [-o BENCH_map.json]
//
// With no -k every K in 2..5 is measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"chortle"
)

type record struct {
	Circuit string `json:"circuit"`
	K       int    `json:"k"`
	// Engine is the mapping engine measured (schema v4); absent in
	// older reports, which measured only the tree engine.
	Engine      string      `json:"engine,omitempty"`
	LUTs        int         `json:"luts"`
	NsPerOp     int64       `json:"ns_per_op"`
	AllocsPerOp int64       `json:"allocs_per_op"`
	BytesPerOp  int64       `json:"bytes_per_op"`
	Stats       *statBlock  `json:"stats,omitempty"`
	SharedCache *cacheBlock `json:"shared_cache,omitempty"`
}

// cacheBlock (schema v3) measures the cross-run shape cache on this
// (circuit, K): mean wall time mapping through a fresh cache per rep
// (cold) versus through a cache warmed by one prior mapping of the same
// circuit (warm), and the warm run's hit/miss counts. The LUT count is
// identical in both — only the time moves.
type cacheBlock struct {
	ColdNsPerOp int64   `json:"cold_ns_per_op"`
	WarmNsPerOp int64   `json:"warm_ns_per_op"`
	Speedup     float64 `json:"speedup"`
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
}

// statBlock is the machine-readable slice of the mapper's observability
// report, captured from a separate observed run so the timed reps stay
// unobserved. Phase times come from that observed run and are in
// nanoseconds.
type statBlock struct {
	Depth        int              `json:"depth"`
	Trees        int              `json:"trees"`
	PhaseNs      map[string]int64 `json:"phase_ns"`
	Solves       int              `json:"solves"`
	WorkUnits    int64            `json:"work_units"`
	MemoHits     int              `json:"memo_hits"`
	MemoHitRate  float64          `json:"memo_hit_rate"`
	Degraded     int              `json:"degraded"`
	ArenaBytes   int64            `json:"arena_bytes"`
	LUTInputHist map[string]int   `json:"lut_input_hist"`
}

type report struct {
	Schema     string   `json:"schema"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []record `json:"results"`
}

func main() {
	var (
		kFlag    = flag.Int("k", 0, "single K to measure (default: 2,3,4,5)")
		circuits = flag.String("circuits", "", "comma-separated circuit subset (default: all twelve)")
		engines  = flag.String("engines", "tree,cut", "comma-separated engines to measure (tree, mis, cut)")
		reps     = flag.Int("reps", 5, "timed repetitions per (circuit, K); the mean is reported")
		out      = flag.String("o", "BENCH_map.json", "output file (- for stdout)")
		debug    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port while benchmarking")
	)
	flag.Parse()

	// The metrics bridge only rides the observed warm-up runs: the timed
	// reps keep a nil observer so the numbers stay undisturbed, but pprof
	// covers the whole process either way. metricsObs stays a nil
	// interface (not a typed-nil pointer) when -debug-addr is unset.
	var metricsObs chortle.Observer
	if *debug != "" {
		reg := chortle.NewMetricsRegistry()
		metricsObs = chortle.NewMetricsObserverWithRuntime(reg)
		srv, err := chortle.ServeDebug(*debug, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s\n", srv.Addr())
		defer srv.Shutdown(context.Background())
	}

	ks := []int{2, 3, 4, 5}
	if *kFlag != 0 {
		ks = []int{*kFlag}
	}
	names := chortle.SuiteNames()
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}
	sort.Strings(names)

	var engineList []chortle.Engine
	for _, s := range strings.Split(*engines, ",") {
		e, err := chortle.ParseEngine(s)
		if err != nil {
			fatal(err)
		}
		engineList = append(engineList, e)
	}

	var rep report
	rep.Schema = "chortle-bench-map/v4"
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)

	for _, name := range names {
		nw, err := chortle.BenchmarkNetwork(name)
		if err != nil {
			fatal(err)
		}
		for _, k := range ks {
			for _, eng := range engineList {
				opts := chortle.DefaultOptions(k)
				opts.Engine = eng
				rec, err := measure(name, nw, opts, *reps, metricsObs)
				if err != nil {
					fatal(err)
				}
				rep.Results = append(rep.Results, rec)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func measure(name string, nw *chortle.Network, opts chortle.Options, reps int, extra chortle.Observer) (record, error) {
	// Warm up: pulls the arena pool to steady state and gives a LUT count
	// to anchor against. The warm-up run is also the observed one — the
	// timed reps below map with a nil observer, so the stats block never
	// taxes the numbers it rides along with.
	var col chortle.Collector
	obsOpts := opts
	obsOpts.Observer = &col
	if extra != nil {
		obsOpts.Observer = chortle.MultiObserver{&col, extra}
	}
	res, err := chortle.Map(nw, obsOpts)
	if err != nil {
		return record{}, fmt.Errorf("%s K=%d: %w", name, opts.K, err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := chortle.Map(nw, opts); err != nil {
			return record{}, fmt.Errorf("%s K=%d: %w", name, opts.K, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	// The MIS engine is unobserved, so its record carries no stats
	// block; the timing and LUT anchor still apply.
	var stats *statBlock
	if opts.Engine != chortle.EngineMIS {
		stats = buildStats(col.Report())
	}

	// Shared-cache warm-vs-cold measurement. Cold pays publication on
	// top of the solve (a fresh cache per rep); warm maps through a
	// cache already holding every shape of this circuit. Only
	// meaningful for the tree engine — the shared tier rides the tree
	// DP's shape memo.
	var cache *cacheBlock
	if opts.Engine == chortle.EngineTree {
		cache, err = measureCache(name, nw, opts, reps)
		if err != nil {
			return record{}, err
		}
	}

	return record{
		Circuit:     name,
		K:           opts.K,
		Engine:      opts.Engine.String(),
		LUTs:        res.LUTs,
		NsPerOp:     elapsed.Nanoseconds() / int64(reps),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(reps),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(reps),
		Stats:       stats,
		SharedCache: cache,
	}, nil
}

func buildStats(r *chortle.MapReport) *statBlock {
	stats := &statBlock{
		Depth:        r.Depth,
		Trees:        r.Trees,
		PhaseNs:      make(map[string]int64, len(r.Phases)),
		Solves:       r.Solves,
		WorkUnits:    r.WorkUnits,
		MemoHits:     r.MemoHits,
		MemoHitRate:  r.MemoHitRate(),
		Degraded:     len(r.Degraded),
		ArenaBytes:   r.ArenaBytes,
		LUTInputHist: make(map[string]int, len(r.LUTInputHist)),
	}
	for _, p := range r.Phases {
		stats.PhaseNs[p.Name] = p.Wall.Nanoseconds()
	}
	for in, n := range r.LUTInputHist {
		stats.LUTInputHist[fmt.Sprint(in)] = n
	}
	return stats
}

func measureCache(name string, nw *chortle.Network, opts chortle.Options, reps int) (*cacheBlock, error) {
	cold := time.Duration(0)
	for i := 0; i < reps; i++ {
		c := chortle.NewSharedCache(chortle.SharedCacheConfig{})
		o := opts
		o.SharedCache = c
		t0 := time.Now()
		if _, err := chortle.Map(nw, o); err != nil {
			return nil, fmt.Errorf("%s K=%d cold: %w", name, opts.K, err)
		}
		cold += time.Since(t0)
	}
	c := chortle.NewSharedCache(chortle.SharedCacheConfig{})
	o := opts
	o.SharedCache = c
	if _, err := chortle.Map(nw, o); err != nil {
		return nil, fmt.Errorf("%s K=%d warmup: %w", name, opts.K, err)
	}
	warm := time.Duration(0)
	var hits, misses int
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		wres, err := chortle.Map(nw, o)
		if err != nil {
			return nil, fmt.Errorf("%s K=%d warm: %w", name, opts.K, err)
		}
		warm += time.Since(t0)
		hits, misses = wres.CacheHits, wres.CacheMisses
	}
	cache := &cacheBlock{
		ColdNsPerOp: cold.Nanoseconds() / int64(reps),
		WarmNsPerOp: warm.Nanoseconds() / int64(reps),
		Hits:        hits,
		Misses:      misses,
	}
	if cache.WarmNsPerOp > 0 {
		cache.Speedup = float64(cache.ColdNsPerOp) / float64(cache.WarmNsPerOp)
	}
	return cache, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
