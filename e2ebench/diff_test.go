package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	lower := boundSpec{Name: "lat_ms_p50", Better: "lower", Bound: 0.1}
	higher := boundSpec{Name: "maps_per_s", Better: "higher", Bound: 0.1}
	exact := boundSpec{Name: "luts_total", Better: "lower", Bound: 0}
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name       string
		spec       boundSpec
		base, next []float64
		want       string
	}{
		{"same", lower, base, []float64{10.02, 9.95, 10.1, 10, 9.98}, verdictUnchanged},
		{"worse in every pair", lower, base, []float64{12, 12.5, 13, 12.2, 12.8}, verdictWorse},
		{"better in every pair", lower, base, []float64{8, 8.1, 7.9, 8.2, 8}, verdictBetter},
		{"median worse past the bound", lower, []float64{10, 10, 10, 10, 10.2},
			[]float64{10.1, 11.5, 11.6, 11.7, 11.5}, verdictWorse},
		{"median worse within the bound", lower, base, []float64{10.5, 10.6, 9.95, 10.7, 10.4}, verdictUnchanged},
		{"spread wider than the bound", lower, []float64{5, 15, 10, 20, 8},
			[]float64{11, 9, 13, 25, 7}, verdictUnresolved},
		{"higher is better: a drop is worse", higher, []float64{100, 101, 99, 100, 100},
			[]float64{80, 81, 79, 80, 82}, verdictWorse},
		{"higher is better: a rise is better", higher, []float64{100, 101, 99, 100, 100},
			[]float64{120, 121, 119, 120, 122}, verdictBetter},
		{"exact metric unchanged", exact, []float64{100, 100, 100}, []float64{100, 100, 100}, verdictUnchanged},
		{"exact metric grows", exact, []float64{100, 100, 100}, []float64{101, 101, 101}, verdictWorse},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := compare(c.spec, c.base, c.next); got.verdict != c.want {
				t.Errorf("verdict %s (change %+.3f), want %s", got.verdict, got.change, c.want)
			}
		})
	}
}

// writeRuns writes one run output per value into a fresh directory.
func writeRuns(t *testing.T, workload string, trace bool, metrics []map[string]metric) string {
	t.Helper()
	dir := t.TempDir()
	for i, m := range metrics {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(report{Benchmark: reportSchema, Workload: workload, Seed: int64(i + 1), Trace: trace}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(result{Correct: true, Attempted: 100, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d.out", i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDiffMain(t *testing.T) {
	benchPath := filepath.Join(t.TempDir(), "BENCHMARK.json")
	def := `{"end_to_end": [{"name": "lat_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "engine.solve_ms", "unit": "ms", "better": "lower"}]}`
	if err := os.WriteFile(benchPath, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := func(lat ...float64) []map[string]metric {
		var out []map[string]metric
		for _, v := range lat {
			out = append(out, map[string]metric{"lat_ms_p50": {v, "ms"}})
		}
		return out
	}
	layer := func(v float64) []map[string]metric {
		return []map[string]metric{{"engine.solve_ms": {v, "ms"}}}
	}
	base := writeRuns(t, "paper_tree", false, runs(5, 5.1, 4.9, 5))
	// A run's standard error beside its output is skipped.
	if err := os.WriteFile(filepath.Join(base, "run0.err"), []byte("e2ebench: paper_tree seed 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	same := writeRuns(t, "paper_tree", false, runs(5.05, 4.95, 5, 5.1))
	slow := writeRuns(t, "paper_tree", false, runs(7, 7.2, 6.9, 7.1))

	for _, c := range []struct {
		name     string
		args     []string
		code     int
		contains []string
	}{
		{"unchanged", []string{"-bench", benchPath, base, same}, 0, []string{"paper_tree", "lat_ms_p50", verdictUnchanged}},
		{"worse", []string{"-bench", benchPath, base, slow}, 1, []string{verdictWorse}},
		{"better", []string{"-bench", benchPath, slow, base}, 0, []string{verdictBetter}},
		{"missing directory", []string{"-bench", benchPath, base, filepath.Join(base, "nope")}, 2, nil},
		{"no run outputs", []string{"-bench", benchPath, base, t.TempDir()}, 2, nil},
		{"one directory", []string{"-bench", benchPath, base}, 2, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := diffMain(c.args, &out, &errb); code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, out.String(), errb.String())
			}
			for _, want := range c.contains {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}

	t.Run("layer ratios", func(t *testing.T) {
		b := writeRuns(t, "dag_cut", false, runs(5, 5))
		n := writeRuns(t, "dag_cut", false, runs(5, 5))
		for i, v := range []float64{2, 3} {
			dir := []string{b, n}[i]
			traced := writeRuns(t, "dag_cut", true, layer(v))
			data, err := os.ReadFile(filepath.Join(traced, "run0.out"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "traced.out"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errb bytes.Buffer
		if code := diffMain([]string{"-bench", benchPath, b, n}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		if !strings.Contains(out.String(), "engine.solve_ms") || !strings.Contains(out.String(), "1.500") {
			t.Errorf("no engine.solve_ms ratio of 1.500:\n%s", out.String())
		}
	})
}
