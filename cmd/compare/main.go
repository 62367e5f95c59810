// Command compare regenerates the paper's experimental tables: for each
// benchmark and each K it optimizes the network with the mini-MIS
// standard script, maps it with both the MIS II-style baseline and
// Chortle, verifies both mapped circuits by simulation, and prints the
// paper's table layout (LUT counts, % difference, times). The per-K
// averages and speedup ranges are collected into one summary block
// after all tables rather than interleaved between them.
//
// Usage:
//
//	compare                 # all four tables (K=2..5)
//	compare -k 4            # Table 3 only
//	compare -circuits alu2,rot -k 5
//	compare -engines tree,cut  # engine columns beside MIS (the default)
//	compare -engines cut    # priority-cut engine only
//	compare -noverify       # skip simulation cross-checks (faster)
//	compare -stats          # per-circuit mapper observability to stderr
//	compare -trace t.jsonl  # stream all mapping events as JSON lines
//	compare -timeout 30s    # hard per-circuit limit on the Chortle map
//	compare -budget 1000000 # per-tree search budget in DP work units
//	compare -debug-addr :6060  # /metrics, expvar and pprof while running
//	compare -report cmp.html   # self-contained HTML report of the tables
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"chortle"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, factored out of main so tests can drive it
// with captured streams. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kFlag    = fs.Int("k", 0, "single K to run (default: 2,3,4,5)")
		circuits = fs.String("circuits", "", "comma-separated circuit subset (default: all twelve)")
		noverify = fs.Bool("noverify", false, "skip simulation verification of the mapped circuits")
		stats    = fs.Bool("stats", false, "print each Chortle mapping's observability report to stderr")
		trace    = fs.String("trace", "", "stream every Chortle mapping's events as JSON lines to this file")
		timeout  = fs.Duration("timeout", 0, "hard per-circuit wall-clock limit for the Chortle map (0 = none)")
		budget   = fs.Int64("budget", 0, "per-tree search budget in DP work units (0 = unlimited); over-budget trees fall back to bin packing")
		debug    = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port while comparing")
		report   = fs.String("report", "", "write the comparison as a self-contained HTML report to this file")
		engines  = fs.String("engines", "tree,cut", "comma-separated engines to map beside the MIS baseline (tree, cut); the first is primary")
		version  = fs.Bool("version", false, "print build identity and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		chortle.PrintVersion(stdout, "compare")
		return 0
	}
	var engineList []chortle.Engine
	for _, name := range strings.Split(*engines, ",") {
		e, err := chortle.ParseEngine(name)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		engineList = append(engineList, e)
	}

	var observers []chortle.Observer
	if *debug != "" {
		reg := chortle.NewMetricsRegistry()
		srv, err := chortle.ServeDebug(*debug, reg)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		fmt.Fprintf(stderr, "debug server on http://%s\n", srv.Addr())
		defer srv.Shutdown(context.Background())
		observers = append(observers, chortle.NewMetricsObserverWithRuntime(reg))
	}

	var ks []int
	if *kFlag != 0 {
		ks = []int{*kFlag}
	} else {
		ks = []int{2, 3, 4, 5}
	}
	opts := chortle.CompareOptions{
		Verify:  !*noverify,
		Timeout: *timeout,
		Budget:  *budget,
		// -report needs each run's aggregated stats for its charts, so it
		// turns collection on even without -stats (which only controls the
		// stderr dump).
		Stats:   *stats || *report != "",
		Engines: engineList,
	}
	if *circuits != "" {
		opts.Circuits = strings.Split(*circuits, ",")
	}
	var traceSink *chortle.JSONLObserver
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		defer f.Close()
		traceSink = chortle.NewJSONLObserver(f)
		observers = append(observers, traceSink)
	}
	switch len(observers) {
	case 0:
	case 1:
		opts.Observer = observers[0]
	default:
		opts.Observer = chortle.MultiObserver(observers)
	}
	var tables []chortle.Table
	synthetic := false
	for _, k := range ks {
		tbl, err := chortle.CompareSuite(k, opts)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		fmt.Fprint(stdout, tbl.FormatRows())
		fmt.Fprintln(stdout)
		for _, r := range tbl.Rows {
			if r.Synthetic {
				synthetic = true
			}
			if *stats && r.Report != nil {
				fmt.Fprintf(stderr, "--- %s K=%d ---\n%s", r.Circuit, k, r.Report.Format())
			}
		}
		tables = append(tables, tbl)
	}
	fmt.Fprintln(stdout, "Summary")
	for _, tbl := range tables {
		fmt.Fprint(stdout, tbl.FormatSummary())
	}
	if synthetic {
		fmt.Fprintln(stdout, "(* synthetic stand-in; see DESIGN.md)")
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			fmt.Fprintf(stderr, "compare: writing %s: %v\n", *trace, err)
			return 1
		}
	}
	if *report != "" {
		if err := writeReport(*report, tables); err != nil {
			fmt.Fprintf(stderr, "compare: writing %s: %v\n", *report, err)
			return 1
		}
	}
	return 0
}

// writeReport renders the comparison tables as one self-contained HTML
// file: the paper's table as the comparison header, then one section
// per circuit-K pair with the run's aggregated observability charts.
func writeReport(path string, tables []chortle.Table) error {
	data := &chortle.RunReport{
		Title:     "chortle vs MIS baseline",
		Generated: "generated " + time.Now().Format(time.RFC1123) + " by compare -report",
	}
	for _, tbl := range tables {
		primary := chortle.EngineTree
		if len(tbl.Engines) > 0 {
			primary = tbl.Engines[0]
		}
		for _, r := range tbl.Rows {
			luts, _, diff, dur, _ := r.Cols(primary)
			data.Compare = append(data.Compare, chortle.ReportCompareRow{
				Circuit:      fmt.Sprintf("%s (K=%d, %s)", r.Circuit, tbl.K, primary),
				BaselineLUTs: r.MISLUTs,
				ChortleLUTs:  luts,
				// The table's "%" column is positive when the engine wins;
				// the report's diff is a signed LUT delta (negative =
				// fewer LUTs), so flip the sign.
				DiffPct:      -diff,
				BaselineTime: r.MISTime,
				ChortleTime:  dur,
				Synthetic:    r.Synthetic,
			})
			if r.Report != nil {
				data.Sections = append(data.Sections, chortle.ReportSection{
					Name:     r.Circuit,
					K:        tbl.K,
					LUTs:     luts,
					Depth:    r.Report.Depth,
					Trees:    r.Report.Trees,
					Degraded: len(r.Report.Degraded),
					Stats:    r.Report,
				})
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chortle.WriteRunReport(f, data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
