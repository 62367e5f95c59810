package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the diff reads.
type benchmarkFile struct {
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runOutput is one run's parsed output.
type runOutput struct {
	report report
	result result
}

// verdicts of one (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

func diffMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench diff [-bench BENCHMARK.json] BASE_DIR NEW_DIR")
		return 2
	}
	var bench benchmarkFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench diff: reading %s: %v\n", *benchPath, err)
		return 2
	}
	base, err := readRuns(fs.Arg(0), stderr)
	if err == nil {
		var next []runOutput
		next, err = readRuns(fs.Arg(1), stderr)
		if err == nil {
			if worse := writeDiff(stdout, bench, base, next); worse {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "e2ebench diff: %v\n", err)
	return 2
}

// readRuns parses the regular files in dir that hold one run's standard
// output — a detail report line followed by the result line — and names
// the files it skips (a run's standard error, say) on warn.
func readRuns(dir string, warn io.Writer) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runOutput
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		run, err := readRun(path)
		if err != nil {
			fmt.Fprintf(warn, "e2ebench diff: skipping %s: %v\n", path, err)
			continue
		}
		out = append(out, run)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no run outputs", dir)
	}
	return out, nil
}

func readRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return runOutput{}, err
	}
	if len(lines) < 2 {
		return runOutput{}, fmt.Errorf("want a report line and a result line, got %d lines", len(lines))
	}
	var run runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &run.report); err != nil {
		return runOutput{}, fmt.Errorf("report line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return runOutput{}, fmt.Errorf("result line: %w", err)
	}
	if run.report.Benchmark != reportSchema || run.report.Workload == "" {
		return runOutput{}, fmt.Errorf("not a %s run output", reportSchema)
	}
	return run, nil
}

// comparison is one (workload, metric) row.
type comparison struct {
	metric     string
	base, next [3]float64 // Q1, median, Q3
	change     float64    // relative change of the median, signed so positive is worse
	verdict    string
}

// compare judges one metric. Positive change is worse. A side's spread
// is its interquartile range over its median. The new side is better
// when every new run beats every base run; worse when its median is
// worse by more than the bound and the spreads are within the bound, or
// when every new run is worse than every base run by more than the
// bound; unresolved when a spread exceeds the bound and neither side
// wins every pair; otherwise unchanged.
func compare(spec boundSpec, base, next []float64) comparison {
	c := comparison{metric: spec.Name}
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.next[0], c.next[1], c.next[2] = quartiles(next)
	// worse is how much worse v is than ref, as a share of ref.
	worse := func(v, ref float64) float64 {
		d := v - ref
		if spec.Better == "higher" {
			d = -d
		}
		if ref != 0 {
			d /= math.Abs(ref)
		}
		return d
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return q[2] - q[0]
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	c.change = worse(c.next[1], c.base[1])
	allBetter, allWorse := true, true
	for _, b := range base {
		for _, n := range next {
			allBetter = allBetter && worse(n, b) < 0
			allWorse = allWorse && worse(n, b) > spec.Bound
		}
	}
	switch {
	case allBetter:
		c.verdict = verdictBetter
	case allWorse:
		c.verdict = verdictWorse
	case math.Max(spread(c.base), spread(c.next)) > spec.Bound:
		c.verdict = verdictUnresolved
	case c.change > spec.Bound:
		c.verdict = verdictWorse
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// writeDiff prints the end-to-end verdicts and the per-layer self-time
// ratios, and reports whether any metric is worse than its bound.
func writeDiff(w io.Writer, bench benchmarkFile, base, next []runOutput) bool {
	workloads := map[string]bool{}
	for _, r := range append(append([]runOutput(nil), base...), next...) {
		workloads[r.report.Workload] = true
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	values := func(runs []runOutput, wl, metric string, traced bool) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.result.Metrics[metric]; ok && r.report.Workload == wl && r.report.Trace == traced {
				out = append(out, m.Value)
			}
		}
		return out
	}

	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [Q1, Q3]\tnew median [Q1, Q3]\tchange\tbound\tverdict")
	anyWorse := false
	for _, wl := range names {
		for _, spec := range bench.EndToEnd {
			b, n := values(base, wl, spec.Name, false), values(next, wl, spec.Name, false)
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(%d runs)\t(%d runs)\t\t\tmissing\n", wl, spec.Name, len(b), len(n))
				continue
			}
			c := compare(spec, b, n)
			anyWorse = anyWorse || c.verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%s\n", wl, spec.Name,
				fmtQ(c.base), fmtQ(c.next), 100*c.change, 100*spec.Bound, c.verdict)
		}
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-layer self time, new/base ratio of medians (traced runs):")
	tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tlayer\tbase ms\tnew ms\tratio")
	for _, wl := range names {
		for _, spec := range bench.PerLayer {
			if spec.Unit != "ms" {
				continue
			}
			b, n := values(base, wl, spec.Name, true), values(next, wl, spec.Name, true)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			mb, mn := median(b), median(n)
			if mb == 0 && mn == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\n", wl, spec.Name, mb, mn, fmtRatio(mn, mb))
		}
	}
	tw.Flush()
	return anyWorse
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }

func fmtRatio(a, b float64) string {
	if b == 0 {
		return "new"
	}
	return fmt.Sprintf("%.3f", a/b)
}
