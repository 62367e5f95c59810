// Command e2ebench is chortle's end-to-end benchmark. It times whole
// maps, from BLIF bytes in to verified LUT BLIF bytes out, on four
// workloads, checks every output, and attributes the time to layers.
//
// Run one workload from the repository root; run.sh builds the
// benchmark and chortled from source first:
//
//	bash e2ebench/run.sh --workload paper_tree --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload paper_tree --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is the result: {"correct",
// "attempted", "failed", "metrics"}, each metric a {"value", "unit"}.
// The line before it is the run's detail report: workload, seed, nproc,
// GOMAXPROCS, Go and build versions, sample counts, failure classes,
// every failed check, the machine speed and the raw timings. Progress
// goes to standard error. The exit code is 1 when a check fails, when a
// workload that must never fail has a failure, or when the run cannot
// start.
//
// # Workloads
//
// paper_tree maps the paper's twelve circuits at K=2..5 (48 inputs) with
// the tree engine in process: one caller, a closed loop, every input once
// per seed-shuffled pass. dag_cut does the same with the cut engine over
// all twenty golden circuits at K=4..6 (60 inputs). serve_repeat runs
// chortled with default flags and two closed-loop clients drawing
// uniformly from the paper circuits at K=3..5; a warm-up pass fills the
// shared cache. serve_fresh runs chortled with a small shape cache and
// sends synthetic designs of 300-3000 gates, each new to the server
// (K=3..5, 30% on the cut engine), as an open loop of Poisson arrivals at
// 12 requests/s, each with a 250 ms limit sent as deadline_ms and as the
// context deadline. The serving workloads use at most two connections,
// from this one process. The seed shuffles the in-process passes, draws
// the serving clients' requests, and sets serve_fresh's arrival times
// and order; serve_fresh's designs are the same for every seed, so its
// LUT total repeats exactly.
//
// # Metrics
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. Times are in reference milliseconds: raw times scaled by
// the machine's speed, measured as it goes (see calibrate.go), because
// on a shared machine the raw times drift by up to 2x between minutes.
//
//   - lat_ms_p50, lat_ms_p95: per-map latency of correct maps, timed from
//     the send (closed loop) or the due time (open loop) to the bytes
//     out. The tail is p95: serve_fresh's window holds a few hundred
//     arrivals, too few to put ten samples beyond p99.
//   - lat_geomean_ms: the geometric mean over distinct inputs of each
//     input's median latency.
//   - maps_per_s: correct maps per second of loaded time; on serve_fresh,
//     those inside the limit per second of its fixed-rate schedule.
//   - slo_frac: the share of attempts answered correctly within 250 ms;
//     refusals and failures are misses.
//   - luts_total: LUTs summed over the distinct inputs (quality; exact).
//   - peak_rss_mb: VmHWM of the mapping process (this one, or chortled).
//   - setup_s: the median of five set-ups: in process, the parse, map and
//     serialize time of a warm-up pass over every input; serving,
//     chortled's exec to a healthy /healthz plus the warm-up pass. Input
//     generation and builds are excluded.
//
// Failures are the result's "failed" count. With --trace 1 the window is
// split: the first half runs untraced with allocation counters, the
// second traced, and the run reports the per-layer metrics (see
// perLayerMetrics, which also says which end-to-end metric each should
// move). In process every map gets a chortle.ReqTrace with spans
// blif.parse, map and lut.serialize, and the engine's phases as
// engine:<phase> spans under map. Serving, chortled writes its access
// log and the client records its spans; the benchmark adds its own
// request span and joins the three by trace ID. A layer's self time is
// its span minus what its children cover; what no layer covers is
// "unattributed", so the layers add up to each map's total. The first
// maps' spans go to <trace-dir>/trace.json (default
// .bench_build/trace/<workload>/): open it in ui.perfetto.dev with "Open
// trace file".
//
// # Correctness
//
// Outside the windows: in process, every input's first output passes
// chortle.Verify and matches its golden LUT count, and every later
// repetition has the same SHA-256. Serving, every input is mapped in
// process after the window, that map is verified and held to its
// golden, and every 2xx body must be byte-identical to it. Passed
// verifications are remembered under .bench_build/verified, keyed by the
// input and output bytes, so each output is simulated once per checkout.
//
// # Comparing runs
//
//	e2ebench diff [-bench BENCHMARK.json] BASE_DIR NEW_DIR
//
// reads files holding run outputs from two directories and prints, per
// workload and end-to-end metric, each side's median and quartiles and
// a verdict (better, worse, unchanged or unresolved), then per-layer
// self-time ratios from traced runs. It exits 1 when any metric is worse
// than its bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"chortle"
)

// setupReps is how many set-ups an untraced run times; it reports their
// median.
const setupReps = 5

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(diffMain(os.Args[2:], os.Stdout, os.Stderr))
		case calibrateCommand:
			os.Exit(calibrateMain(os.Stdin, os.Stdout))
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := runMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// report is the detail line printed before the result.
type report struct {
	Benchmark string         `json:"benchmark"`
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Env       environment    `json:"env"`
	Sessions  []sessionStats `json:"sessions"`
	Problems  []string       `json:"problems,omitempty"`
	TraceFile string         `json:"trace_file,omitempty"`
}

type environment struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	BuildVersion string `json:"build_version"`
}

type sessionStats struct {
	Traced    bool           `json:"traced"`
	Attempted int            `json:"attempted"`
	Samples   int            `json:"samples"` // correct maps timed
	Inputs    int            `json:"inputs"`  // distinct inputs sent
	Failures  map[string]int `json:"failures,omitempty"`
	// Speed is the median machine speed (reference = 1); Raw holds the
	// timing metrics before scaling by it.
	Speed float64           `json:"speed"`
	Raw   map[string]metric `json:"raw"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const reportSchema = "chortle-e2e/v1"

func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: paper_tree, dag_cut, serve_repeat or serve_fresh")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 20, "window length in seconds")
		trace    = fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
		traceDir = fs.String("trace-dir", "", "directory for trace.json and access logs (default .bench_build/trace/<workload>)")
		bin      = fs.String("chortled", "", "chortled binary for the serving workloads")
		golden   = fs.String("golden", filepath.Join("testdata", "golden"), "directory of golden LUT counts")
		verified = fs.String("verified-dir", filepath.Join(".bench_build", "verified"), "cache of passed verifications")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of paper_tree, dag_cut, serve_repeat, serve_fresh), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	cfg := config{
		seed: *seed, traceDir: *traceDir, chortled: *bin, goldenDir: *golden,
		verdicts: verdicts{*verified}, log: stderr,
	}
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(".bench_build", "trace", w.name)
	}

	window, traced := time.Duration(*seconds*float64(time.Second)), *trace == 1
	opts := []sessionOpts{{window: window, setupReps: setupReps}}
	if traced {
		opts = []sessionOpts{
			{window: window / 2, setupReps: 1, meterAllocs: true},
			{window: window / 2, setupReps: 1, traced: true},
		}
	}
	cfg.logf("%s seed %d: %s window", w.name, cfg.seed, window)
	began := time.Now()
	cal, err := startCalibrator()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	cfg.cal = cal
	sessions, err := w.run(ctx, cfg, opts)
	if cerr := cal.stop(); err == nil && cerr != nil {
		err = fmt.Errorf("calibrator: %w", cerr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}

	rep := report{
		Benchmark: reportSchema, Workload: w.name, Seed: cfg.seed, Seconds: *seconds, Trace: traced,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), BuildVersion: chortle.BuildVersion(),
		},
	}
	var res result
	for i, s := range sessions {
		raw := endToEnd(s, true)
		st := sessionStats{Traced: opts[i].traced, Attempted: len(s.maps), Speed: s.speed(), Raw: map[string]metric{}}
		for _, name := range []string{"lat_ms_p50", "lat_ms_p95", "lat_geomean_ms", "maps_per_s", "setup_s"} {
			st.Raw[name] = raw[name]
		}
		distinct := map[int]bool{}
		for _, m := range s.maps {
			distinct[m.input] = true
			switch {
			case m.served():
				st.Samples++
			case m.wrong:
				st.count("wrong-output")
			default:
				st.count(m.err)
			}
		}
		st.Inputs = len(distinct)
		res.Attempted += st.Attempted
		res.Failed += st.Attempted - st.Samples
		rep.Sessions = append(rep.Sessions, st)
		rep.Problems = append(rep.Problems, s.problems...)
	}
	res.Correct = len(rep.Problems) == 0
	if traced {
		res.Metrics = layerMetrics(sessions[0], sessions[1])
		if rep.TraceFile, err = writeTraceFile(cfg.traceDir, sessions[1].spans); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
	} else {
		res.Metrics = endToEnd(sessions[0], false)
	}
	if res.Attempted == 0 {
		fmt.Fprintf(stderr, "e2ebench: %s: the window attempted no map\n", w.name)
		return 1
	}
	if len(rep.Problems) > maxProblems {
		rep.Problems = append(rep.Problems[:maxProblems], fmt.Sprintf("... and %d more", len(rep.Problems)-maxProblems))
	}

	cfg.logf("done in %.1fs", time.Since(began).Seconds())
	enc := json.NewEncoder(stdout)
	if err := errors.Join(enc.Encode(rep), enc.Encode(res)); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "e2ebench: FAILED CHECK: %s\n", p)
	}
	if !res.Correct || (res.Failed > 0 && !w.mayRefuse) {
		return 1
	}
	return 0
}

// maxProblems bounds the failed checks listed in the report.
const maxProblems = 50

func (st *sessionStats) count(class string) {
	if st.Failures == nil {
		st.Failures = map[string]int{}
	}
	st.Failures[class]++
}
