package chortle

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The perf gate (scripts/perf_gate.sh) judges fresh end-to-end benchmark
// runs against the runs in testdata/perfgate/baseline/ under the bounds
// in testdata/perfgate/bounds.json. e2ebench diff reports a metric that
// either side lacks as "missing" and passes it, so a bound whose name
// drifted from what the benchmark reports would gate nothing. This pins
// the gate's inputs against BENCHMARK.json and against each other. After
// an intended LUT-count change, record the baseline again, from the
// repository root, for each gated workload W and seed N in 1..3:
//
//	bash e2ebench/run.sh --workload W --seed N --seconds 5 --trace 0 \
//	    > testdata/perfgate/baseline/W_seedN.json

const perfGateRunSchema = "chortle-e2e/v1"

// perfGateSpec is the part of BENCHMARK.json and of bounds.json the gate
// reads: the workloads and each end-to-end metric's direction.
type perfGateSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func readPerfGateJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestPerfGateBaseline(t *testing.T) {
	var bench, bounds perfGateSpec
	readPerfGateJSON(t, "BENCHMARK.json", &bench)
	readPerfGateJSON(t, filepath.Join("testdata", "perfgate", "bounds.json"), &bounds)

	better := map[string]string{}
	for _, m := range bench.EndToEnd {
		better[m.Name] = m.Better
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	if len(bounds.EndToEnd) == 0 || len(bounds.Workloads) == 0 {
		t.Fatal("bounds.json gates no metric or no workload")
	}
	for _, m := range bounds.EndToEnd {
		want, ok := better[m.Name]
		switch {
		case !ok:
			t.Errorf("bound %q is not an end-to-end metric of BENCHMARK.json", m.Name)
		case m.Better != want:
			t.Errorf("bound %q: better is %q, BENCHMARK.json says %q", m.Name, m.Better, want)
		}
	}

	paths, err := filepath.Glob(filepath.Join("testdata", "perfgate", "baseline", "*"))
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]int{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A run's output is its report line, then its result line.
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var report struct {
			Benchmark string `json:"benchmark"`
			Workload  string `json:"workload"`
			Trace     bool   `json:"trace"`
		}
		var result struct {
			Correct bool                `json:"correct"`
			Failed  int                 `json:"failed"`
			Metrics map[string]struct{} `json:"metrics"`
		}
		if len(lines) != 2 {
			t.Errorf("%s: %d lines, want a report line and a result line", path, len(lines))
			continue
		}
		if err := json.Unmarshal(lines[0], &report); err != nil {
			t.Errorf("%s: report line: %v", path, err)
			continue
		}
		if err := json.Unmarshal(lines[1], &result); err != nil {
			t.Errorf("%s: result line: %v", path, err)
			continue
		}
		if report.Benchmark != perfGateRunSchema || report.Trace || !workloads[report.Workload] {
			t.Errorf("%s: want an untraced %s run of a BENCHMARK.json workload, got %q run of %q (trace %v)",
				path, perfGateRunSchema, report.Benchmark, report.Workload, report.Trace)
		}
		if !result.Correct || result.Failed != 0 {
			t.Errorf("%s: correct %v with %d failed, want a correct run with none failed", path, result.Correct, result.Failed)
		}
		for _, m := range bounds.EndToEnd {
			if _, ok := result.Metrics[m.Name]; !ok {
				t.Errorf("%s lacks the gated metric %q", path, m.Name)
			}
		}
		runs[report.Workload]++
	}
	for _, w := range bounds.Workloads {
		if !workloads[w.Name] {
			t.Errorf("gated workload %q is not a BENCHMARK.json workload", w.Name)
		}
		if runs[w.Name] == 0 {
			t.Errorf("gated workload %q has no baseline run", w.Name)
		}
	}
}
