package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"chortle"
	"chortle/internal/bench"
)

// input is one distinct request: BLIF bytes plus the K and engine to
// map them with.
type input struct {
	name   string // <circuit>/k<K>/<engine>
	k      int
	engine chortle.Engine
	blif   string
	// golden is the expected LUT count, or 0 when no golden pins it.
	golden int
}

func (in input) options() chortle.Options {
	o := chortle.DefaultOptions(in.k)
	o.Engine = in.engine
	return o
}

// suiteInputs renders each bundled circuit once as BLIF (the optimized
// network the goldens pin) and pairs it with every K, reading each
// pair's expected LUT count from the golden files.
func suiteInputs(goldenDir string, circuits []string, ks []int, eng chortle.Engine) ([]input, error) {
	blifs := make([]string, len(circuits))
	err := parallel(len(circuits), func(i int) (err error) {
		blifs[i], err = circuitBLIF(circuits[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []input
	for i, name := range circuits {
		g, err := readGolden(goldenDir, name)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			in := input{name: fmt.Sprintf("%s/k%d/%s", name, k, eng), k: k, engine: eng, blif: blifs[i]}
			mode := "map"
			if eng == chortle.EngineCut {
				mode = "cut"
			}
			in.golden = g.Results[fmt.Sprintf("k%d/%s", k, mode)].LUTs
			if in.golden == 0 {
				return nil, fmt.Errorf("%s: no golden LUT count for k%d/%s", name, k, mode)
			}
			if drift, ok := blifDrift[in.name]; ok {
				in.golden = drift
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// blifDrift pins the rows where mapping the BLIF bytes differs from the
// golden, which maps the in-memory network. Reading a network back
// renames and reorders its nodes, and the cut engine breaks area ties by
// node order; the golden file has 506 here.
var blifDrift = map[string]int{"frg2/k6/cut": 507}

func circuitBLIF(name string) (string, error) {
	nw, err := chortle.BenchmarkNetwork(name)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := chortle.WriteBLIF(&sb, nw); err != nil {
		return "", fmt.Errorf("%s: writing BLIF: %w", name, err)
	}
	return sb.String(), nil
}

type goldenFile struct {
	Results map[string]struct {
		LUTs int `json:"luts"`
	} `json:"results"`
}

func readGolden(dir, circuit string) (*goldenFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, circuit+".json"))
	if err != nil {
		return nil, fmt.Errorf("reading golden: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden for %s: %w", circuit, err)
	}
	return &g, nil
}

// Synthetic designs for serve_fresh: 300-3000 gates, K in 3..5, 30% on
// the cut engine, input and output counts growing with size as in the
// suite's synthetic circuits. The pool is drawn from a fixed stream, not
// from the workload seed, so every seed sends the same designs (in its
// own order and on its own arrival schedule) and luts_total repeats
// exactly.
const (
	poolSeed = 0x5eed_f2e5
	minGates = 300
	maxGates = 3000
	cutShare = 0.3
)

// freshPool returns n distinct synthetic requests; offset shifts the
// stream so warm-up designs never repeat a measured one.
func freshPool(n int, offset int64) ([]input, error) {
	rng := rand.New(rand.NewSource(poolSeed + offset))
	out := make([]input, n)
	specs := make([]bench.SyntheticSpec, n)
	for i := range out {
		gates := minGates + rng.Intn(maxGates-minGates+1)
		specs[i] = bench.SyntheticSpec{
			Name:    fmt.Sprintf("fresh%d", offset+int64(i)),
			Inputs:  16 + gates/8,
			Outputs: 8 + gates/10,
			Gates:   gates,
			Seed:    poolSeed + offset + int64(i),
		}
		k, eng := 3+rng.Intn(3), chortle.EngineTree
		if rng.Float64() < cutShare {
			eng = chortle.EngineCut
		}
		out[i] = input{name: fmt.Sprintf("%s/k%d/%s", specs[i].Name, k, eng), k: k, engine: eng}
	}
	err := parallel(n, func(i int) error {
		var sb strings.Builder
		if err := chortle.WriteBLIF(&sb, bench.Synthetic(specs[i])); err != nil {
			return fmt.Errorf("%s: writing BLIF: %w", specs[i].Name, err)
		}
		out[i].blif = sb.String()
		return nil
	})
	return out, err
}

// parallel runs f(0..n-1) on `connections` workers and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
