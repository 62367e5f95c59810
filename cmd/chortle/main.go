// Command chortle maps a combinational BLIF network into K-input
// lookup tables with the Chortle algorithm and writes the mapped
// circuit as BLIF.
//
// Usage:
//
//	chortle [-k K] [-engine tree|mis|cut] [-o out.blif] [-opt] [-baseline]
//	        [-stats] [-verify] [-trace trace.jsonl] [-timeout 30s] [-budget N]
//	        [-debug-addr :6060] [-explain report.html] [-dot out.dot]
//	        [-shared-cache] [-v] [-log-format text|json]
//	        [-server URL[,URL...]] [-server-hedge 30ms]
//	        [-server-trace spans.jsonl] [in.blif ...]
//
// -engine selects the mapping algorithm: tree (the paper's per-tree
// exhaustive DP, the default), mis (the MIS II-style library baseline)
// or cut (the priority-cut DAG mapper, which sees through reconvergent
// fanout). All engines emit the same circuit format, so -verify, -stats
// and the output writers work unchanged; flags that tune the tree
// search (-dup, -depth, -binpack, -split, -budget, -shared-cache) are
// rejected with the other engines rather than silently ignored. In
// -server mode the engine rides along in the request and the fleet maps
// with it per request.
//
// -server maps remotely through a chortled fleet instead of in-process,
// using the resilient chortle/client (retries with backoff, circuit
// breakers per address, Retry-After awareness; -server-hedge duplicates
// slow requests to the next replica). The served answer is
// byte-identical to a local map of the same network and options.
// -server-trace streams the client's spans — one per attempt, hedge and
// backoff pause, sharing the server's trace IDs — as JSON lines; merge
// that file with chortled's -access-log in cmd/traceview for one
// multi-process timeline of each request.
//
// With no input file the network is read from standard input. Several
// input files map as a batch: the mapped circuits are written in order
// as consecutive BLIF models (batch mode supports -k/-opt/-o/-stats and
// the search flags, but not -baseline/-verify/-explain/-dot/-verilog).
// -shared-cache routes every mapping in the process through one
// cross-run shape cache, so isomorphic trees recurring across the batch
// (or across -dup candidate evaluations) are solved once; -stats then
// reports the hit rate. The emitted circuits are byte-identical with
// the cache on or off.
// -timeout is a hard wall-clock limit: when it expires the mapping is
// cancelled and the command fails. -budget bounds the per-tree
// exhaustive search in DP work units; over-budget trees degrade to the
// bin-packing strategy (still correct, possibly more LUTs) and are
// counted on stderr. -stats prints the mapper's observability report
// (phase wall times, memo hit rates, LUT histograms) to stderr;
// -trace streams every mapping event as one JSON line to the named
// file (convert it with cmd/traceview for Perfetto); -debug-addr
// serves /metrics (Prometheus text), /debug/vars (expvar) and
// /debug/pprof while the command runs. -explain records per-LUT
// provenance during the mapping and writes a self-contained HTML run
// report; -dot writes the mapped circuit as a Graphviz digraph,
// clustered by tree and colored by origin when provenance is on.
// -v / -log-format narrate the run through log/slog on stderr (-v
// opens Debug-level per-tree detail). None of them change the emitted
// circuit.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"chortle"
)

func main() {
	var (
		k        = flag.Int("k", 4, "lookup table input count (2..6)")
		engine   = flag.String("engine", "tree", "mapping engine: tree (paper's per-tree DP), mis (library baseline), cut (priority-cut DAG mapper)")
		out      = flag.String("o", "", "output BLIF file (default stdout)")
		optimize = flag.Bool("opt", false, "run the mini-MIS standard script before mapping")
		baseline = flag.Bool("baseline", false, "map with the MIS II-style library mapper instead of Chortle")
		stats    = flag.Bool("stats", false, "print area/depth/utilization statistics to stderr")
		check    = flag.Bool("verify", false, "verify the mapped circuit against the input network by simulation")
		dup      = flag.Bool("dup", false, "enable fanout-logic duplication (paper future-work extension)")
		repack   = flag.Bool("repack", false, "merge single-fanout LUT pairs after mapping (reconvergence recovery)")
		clb      = flag.Bool("clb", false, "report XC3000-style CLB count (5-input, 2-LUT blocks)")
		split    = flag.Int("split", 10, "node-splitting fanin threshold (paper: 10)")
		plaIn    = flag.Bool("pla", false, "input is an espresso-format PLA (auto-detected for *.pla files)")
		depth    = flag.Bool("depth", false, "minimize LUT depth first, area second (Chortle-d-style)")
		binpack  = flag.Bool("binpack", false, "use the Chortle-crf-style bin-packing decomposition (faster, near-optimal)")
		verilog  = flag.Bool("verilog", false, "emit structural Verilog instead of BLIF")
		path     = flag.Bool("path", false, "print the critical path to stderr")
		timeout  = flag.Duration("timeout", 0, "hard wall-clock limit for the mapping (0 = none); expiry cancels and fails")
		budget   = flag.Int64("budget", 0, "per-tree search budget in DP work units (0 = unlimited); over-budget trees fall back to bin packing")
		trace    = flag.String("trace", "", "stream mapping events as JSON lines to this file")
		debug    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port while mapping")
		explain  = flag.String("explain", "", "record per-LUT provenance and write a self-contained HTML run report to this file")
		dotOut   = flag.String("dot", "", "write the mapped circuit as a Graphviz DOT file")
		verbose  = flag.Bool("v", false, "log per-tree mapping detail to stderr (implies -log-format text)")
		logFmt   = flag.String("log-format", "", "narrate the run on stderr via log/slog: text or json")
		shared   = flag.Bool("shared-cache", false, "share one cross-run shape cache across all mappings in this process")
		server   = flag.String("server", "", "map remotely via these chortled base URLs (comma-separated) instead of in-process")
		hedge    = flag.Duration("server-hedge", 0, "with ≥2 -server addresses, hedge a slow request to the next replica after this delay (0 = off)")
		srvTrace = flag.String("server-trace", "", "with -server, stream client-side spans (attempts, retries, hedges) as JSON lines to this file; merge with the server's -access-log in chortle-traceview")
		version  = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()

	if *version {
		chortle.PrintVersion(os.Stdout, "chortle")
		return
	}

	eng, engErr := chortle.ParseEngine(*engine)
	if engErr != nil {
		fatal(engErr)
	}
	if eng != chortle.EngineTree {
		if *baseline {
			fatal(fmt.Errorf("-baseline conflicts with -engine %s (it is the pre-engine spelling of -engine mis)", eng))
		}
		// Tree-search tuning flags do nothing under the other engines;
		// reject explicit uses rather than silently ignoring them.
		treeOnly := map[string]bool{
			"dup": true, "depth": true, "binpack": true, "split": true,
			"budget": true, "shared-cache": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if treeOnly[f.Name] {
				fatal(fmt.Errorf("-%s tunes the tree engine and is not supported with -engine %s", f.Name, eng))
			}
		})
	}
	if eng == chortle.EngineMIS {
		// The library baseline is unobserved and records no provenance,
		// exactly like -baseline.
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*trace != "", "-trace"}, {*explain != "", "-explain"}, {*dotOut != "", "-dot"},
		} {
			if bad.set {
				fatal(fmt.Errorf("%s is not supported with -engine mis (the library mapper is unobserved)", bad.name))
			}
		}
	}

	if *server != "" {
		// Remote mode: the server owns the mapping options beyond k and
		// budget, so flags that change the local search are rejected
		// rather than silently ignored.
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*baseline, "-baseline"}, {*check, "-verify"}, {*explain != "", "-explain"},
			{*dotOut != "", "-dot"}, {*trace != "", "-trace"}, {*clb, "-clb"}, {*path, "-path"},
			{*dup, "-dup"}, {*repack, "-repack"}, {*depth, "-depth"}, {*binpack, "-binpack"},
			{*verilog, "-verilog"}, {*shared, "-shared-cache"},
		} {
			if bad.set {
				fatal(fmt.Errorf("%s is not supported with -server (the server owns the mapping options)", bad.name))
			}
		}
		remoteMap(flag.Args(), remoteFlags{
			addrs:    strings.Split(*server, ","),
			hedge:    *hedge,
			out:      *out,
			optimize: *optimize,
			plaIn:    *plaIn,
			stats:    *stats,
			timeout:  *timeout,
			k:        *k,
			budget:   *budget,
			engine:   eng.String(),
			traceOut: *srvTrace,
		})
		return
	}
	if *srvTrace != "" {
		fatal(fmt.Errorf("-server-trace records the remote client's spans and needs -server"))
	}

	var cache *chortle.SharedCache
	if *shared {
		cache = chortle.NewSharedCache(chortle.SharedCacheConfig{})
	}

	var slogObs chortle.Observer
	if *verbose || *logFmt != "" {
		lvl := slog.LevelInfo
		if *verbose {
			lvl = slog.LevelDebug
		}
		var h slog.Handler
		switch *logFmt {
		case "", "text":
			h = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
		case "json":
			h = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
		default:
			fatal(fmt.Errorf("-log-format must be text or json, got %q", *logFmt))
		}
		slogObs = chortle.NewSlogObserver(slog.New(h))
	}

	var metricsObs *chortle.MetricsObserver
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

	// buildOpts assembles the mapper configuration shared by the single
	// and batch paths; batch-incompatible concerns (provenance,
	// observers) are layered on by the single path.
	buildOpts := func() chortle.Options {
		opts := chortle.DefaultOptions(*k)
		opts.Engine = eng
		opts.SplitThreshold = *split
		opts.DuplicateFanoutLogic = *dup
		opts.RepackLUTs = *repack
		opts.OptimizeDepth = *depth
		opts.Budget.WorkUnits = *budget
		if *binpack {
			opts.Strategy = chortle.StrategyBinPack
		}
		opts.SharedCache = cache
		return opts
	}

	if flag.NArg() > 1 {
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*baseline, "-baseline"}, {*check, "-verify"}, {*explain != "", "-explain"},
			{*dotOut != "", "-dot"}, {*trace != "", "-trace"}, {*clb, "-clb"}, {*path, "-path"},
		} {
			if bad.set {
				fatal(fmt.Errorf("%s is not supported with multiple inputs", bad.name))
			}
		}
		batchMap(flag.Args(), buildOpts, cache, batchFlags{
			out: *out, optimize: *optimize, plaIn: *plaIn, verilog: *verilog,
			stats: *stats, timeout: *timeout, k: *k,
			slogObs: slogObs, metricsObs: metricsObs,
		})
		return
	}

	in := os.Stdin
	isPLA := *plaIn
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		if strings.HasSuffix(flag.Arg(0), ".pla") {
			isPLA = true
		}
	}
	var nw *chortle.Network
	var err error
	if isPLA {
		nw, err = chortle.ReadPLA(in)
	} else {
		nw, err = chortle.ReadBLIF(in)
	}
	if err != nil {
		fatal(err)
	}
	if *optimize {
		nw, err = chortle.Optimize(nw)
		if err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var ckt *chortle.Circuit
	var report *chortle.MapReport
	start := time.Now()
	if *baseline {
		if *trace != "" {
			fatal(fmt.Errorf("-trace is not supported with -baseline (the library mapper is unobserved)"))
		}
		if *explain != "" || *dotOut != "" {
			fatal(fmt.Errorf("-explain/-dot are not supported with -baseline (provenance is a Chortle-mapper feature)"))
		}
		res, err := chortle.MapBaseline(nw, *k)
		if err != nil {
			fatal(err)
		}
		ckt = res.Circuit
	} else {
		opts := buildOpts()
		// Provenance is what -explain and -dot render; recording it does
		// not change the emitted circuit.
		opts.Provenance = *explain != "" || *dotOut != ""
		// Observability wiring: -stats aggregates through a collector
		// (-explain needs one too, for the report's charts), -trace
		// streams JSON lines, -v/-log-format narrate through slog,
		// -debug-addr feeds the metrics registry; any combination can be
		// active at once.
		var observers []chortle.Observer
		var col *chortle.Collector
		// The MIS engine emits no observer events, so -stats falls back to
		// the circuit summary instead of an empty mapper report.
		if (*stats && eng != chortle.EngineMIS) || *explain != "" {
			col = &chortle.Collector{}
			observers = append(observers, col)
		}
		if slogObs != nil {
			observers = append(observers, slogObs)
		}
		var traceSink *chortle.JSONLObserver
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			traceSink = chortle.NewJSONLObserver(f)
			observers = append(observers, traceSink)
		}
		if metricsObs != nil {
			observers = append(observers, metricsObs)
		}
		switch len(observers) {
		case 0:
		case 1:
			opts.Observer = observers[0]
		default:
			opts.Observer = chortle.MultiObserver(observers)
		}
		res, err := chortle.MapCtx(ctx, nw, opts)
		if err != nil {
			if ctx.Err() != nil {
				fatal(fmt.Errorf("mapping timed out after %s: %w", *timeout, err))
			}
			fatal(err)
		}
		if traceSink != nil {
			if err := traceSink.Err(); err != nil {
				fatal(fmt.Errorf("writing %s: %w", *trace, err))
			}
		}
		if len(res.Degraded) > 0 {
			fmt.Fprintf(os.Stderr, "budget exhausted on %d tree(s); degraded to bin packing\n",
				len(res.Degraded))
		}
		if col != nil {
			report = col.Report()
		}
		if cache != nil && *stats {
			fmt.Fprint(os.Stderr, cacheLine(cache, res.CacheHits, res.CacheMisses))
		}
		ckt = res.Circuit

		var dotSrc string
		if *dotOut != "" || *explain != "" {
			var db bytes.Buffer
			if err := chortle.WriteCircuitDOT(&db, ckt); err != nil {
				fatal(err)
			}
			dotSrc = db.String()
			if *dotOut != "" {
				if err := os.WriteFile(*dotOut, db.Bytes(), 0o644); err != nil {
					fatal(err)
				}
			}
		}
		if *explain != "" {
			st, err := ckt.Stats()
			if err != nil {
				fatal(err)
			}
			rep := &chortle.RunReport{
				Title:     fmt.Sprintf("chortle mapping report: %s (K=%d)", ckt.Name, *k),
				Generated: "generated " + time.Now().Format(time.RFC1123),
				Sections: []chortle.ReportSection{{
					Name:     ckt.Name,
					K:        *k,
					LUTs:     res.LUTs,
					Depth:    st.Depth,
					Trees:    res.Trees,
					Degraded: len(res.Degraded),
					Origins:  ckt.OriginCounts(),
					Stats:    report,
					DOT:      dotSrc,
				}},
			}
			f, err := os.Create(*explain)
			if err != nil {
				fatal(err)
			}
			if err := chortle.WriteRunReport(f, rep); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	elapsed := time.Since(start)

	if *check {
		if err := chortle.Verify(nw, ckt, 64, 1); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Fprintln(os.Stderr, "verification passed")
	}
	if *stats {
		if report != nil {
			// The mapper's own observability report: phase wall times,
			// search effort, memo hit rates, histograms.
			fmt.Fprint(os.Stderr, report.Format())
		} else {
			s, err := ckt.Stats()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "%d LUTs (K=%d), depth %d, mapped in %s\n",
				s.LUTs, *k, s.Depth, elapsed.Round(time.Millisecond/10))
			var us []int
			for u := range s.Utilization {
				us = append(us, u)
			}
			sort.Ints(us)
			for _, u := range us {
				fmt.Fprintf(os.Stderr, "  %d-input LUTs: %d\n", u, s.Utilization[u])
			}
		}
	}
	if *clb {
		fmt.Fprintf(os.Stderr, "XC3000 CLBs (5-input, 2-LUT blocks): %d\n",
			ckt.PackCLBs(chortle.XC3000))
	}
	if *path {
		steps, err := ckt.CriticalPath()
		if err != nil {
			fatal(err)
		}
		var parts []string
		for _, s := range steps {
			parts = append(parts, fmt.Sprintf("%s(L%d)", s.Signal, s.Level))
		}
		fmt.Fprintf(os.Stderr, "critical path: %s\n", strings.Join(parts, " -> "))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *verilog {
		if err := ckt.WriteVerilog(w); err != nil {
			fatal(err)
		}
		return
	}
	if err := ckt.WriteBLIF(w); err != nil {
		fatal(err)
	}
}

// cacheLine formats the shared-cache summary -stats prints: this run's
// shape hit rate plus the cache's resident footprint.
func cacheLine(cache *chortle.SharedCache, hits, misses int) string {
	st := cache.Stats()
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	return fmt.Sprintf("shared cache: %d/%d shape hits (%.0f%%), %d entries, %d KiB resident\n",
		hits, hits+misses, rate, st.Entries, st.Bytes>>10)
}

type batchFlags struct {
	out        string
	optimize   bool
	plaIn      bool
	verilog    bool
	stats      bool
	timeout    time.Duration
	k          int
	slogObs    chortle.Observer
	metricsObs *chortle.MetricsObserver
}

// batchMap maps several input files in order, writing the circuits as
// consecutive BLIF models (or Verilog modules). With -shared-cache the
// whole batch runs through one cross-run shape cache, so trees
// recurring across files are solved once.
func batchMap(paths []string, buildOpts func() chortle.Options, cache *chortle.SharedCache, bf batchFlags) {
	w := os.Stdout
	if bf.out != "" {
		f, err := os.Create(bf.out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	ctx := context.Background()
	if bf.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, bf.timeout)
		defer cancel()
	}
	var observers []chortle.Observer
	if bf.slogObs != nil {
		observers = append(observers, bf.slogObs)
	}
	if bf.metricsObs != nil {
		observers = append(observers, bf.metricsObs)
	}
	var hits, misses int
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fatal(err)
		}
		var nw *chortle.Network
		if bf.plaIn || strings.HasSuffix(p, ".pla") {
			nw, err = chortle.ReadPLA(f)
		} else {
			nw, err = chortle.ReadBLIF(f)
		}
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		if bf.optimize {
			if nw, err = chortle.Optimize(nw); err != nil {
				fatal(fmt.Errorf("%s: %w", p, err))
			}
		}
		opts := buildOpts()
		switch len(observers) {
		case 0:
		case 1:
			opts.Observer = observers[0]
		default:
			opts.Observer = chortle.MultiObserver(observers)
		}
		res, err := chortle.MapCtx(ctx, nw, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		if len(res.Degraded) > 0 {
			fmt.Fprintf(os.Stderr, "%s: budget exhausted on %d tree(s); degraded to bin packing\n",
				p, len(res.Degraded))
		}
		if bf.verilog {
			err = res.Circuit.WriteVerilog(w)
		} else {
			err = res.Circuit.WriteBLIF(w)
		}
		if err != nil {
			fatal(err)
		}
		hits += res.CacheHits
		misses += res.CacheMisses
		if bf.stats {
			fmt.Fprintf(os.Stderr, "%s: %d LUTs (K=%d), %d trees\n", p, res.LUTs, bf.k, res.Trees)
		}
	}
	if bf.stats && cache != nil {
		fmt.Fprint(os.Stderr, cacheLine(cache, hits, misses))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chortle:", err)
	os.Exit(1)
}
