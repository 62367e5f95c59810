package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload for a one-second window,
// untraced through the command line and traced directly, and holds the
// output to BENCHMARK.json: every metric named there is emitted with its
// unit, every check passes, each traced map's layer self times sum to its
// total, and trace.json is a valid Chrome trace.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds chortled and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "chortled")
	if out, err := exec.Command("go", "build", "-o", bin, "chortle/cmd/chortled").CombinedOutput(); err != nil {
		t.Fatalf("building chortled: %v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "testdata", "golden")
	verified := t.TempDir()

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", "0",
				"-chortled", bin, "-golden", golden, "-verified-dir", verified, "-trace-dir", t.TempDir()}
			if code := runMain(context.Background(), args, &out, &errb); code != 0 {
				t.Fatalf("exit %d\n%s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, bench.EndToEnd, res.Metrics)
			for _, s := range bench.EndToEnd {
				if res.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", s.Name, res.Metrics[s.Name].Value)
				}
			}

			traceDir := t.TempDir()
			cfg := config{seed: 3, traceDir: traceDir, chortled: bin, goldenDir: golden, verdicts: verdicts{verified}}
			sessions, err := w.run(context.Background(), cfg, []sessionOpts{
				{window: time.Second / 2, setupReps: 1, meterAllocs: true},
				{window: time.Second / 2, setupReps: 1, traced: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			traced := sessions[1]
			if len(traced.traces) == 0 {
				t.Fatal("no traced maps")
			}
			for i, tr := range traced.traces {
				var sum time.Duration
				for _, d := range tr.layers {
					sum += d
				}
				if diff := (sum - tr.total).Abs(); float64(diff) > 0.01*float64(tr.total) {
					t.Errorf("map %d: layers sum to %v, total %v", i, sum, tr.total)
				}
			}
			checkMetrics(t, bench.PerLayer, layerMetrics(sessions[0], traced))
			path, err := writeTraceFile(traceDir, traced.spans)
			if err != nil {
				t.Fatal(err)
			}
			checkChromeTrace(t, path)
		})
	}
}

// checkMetrics holds emitted metrics to the declared names and units.
func checkMetrics(t *testing.T, specs []boundSpec, got map[string]metric) {
	t.Helper()
	var want, have []string
	for _, s := range specs {
		want = append(want, s.Name)
		if m, ok := got[s.Name]; ok && m.Unit != s.Unit {
			t.Errorf("%s emitted in %q, declared in %q", s.Name, m.Unit, s.Unit)
		}
	}
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(want)
	sort.Strings(have)
	if strings.Join(want, " ") != strings.Join(have, " ") {
		t.Errorf("emitted metrics\n  %v\ndeclared\n  %v", have, want)
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Dur  int64  `json:"dur"`
	}
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("%s is not a JSON array of trace events: %v", path, err)
	}
	spans := 0
	for _, r := range records {
		if r.Ph == "X" {
			spans++
			if r.Dur < 1 {
				t.Errorf("span %q has duration %d", r.Name, r.Dur)
			}
		}
	}
	if spans == 0 {
		t.Errorf("%s holds no spans", path)
	}
}
