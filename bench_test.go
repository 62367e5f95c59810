package chortle

// The benchmark harness that regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1_K2 .. BenchmarkTable4_K5 — the paper's Tables 1-4:
//	    the twelve-circuit suite mapped by the MIS II-style baseline and
//	    by Chortle, reporting total LUTs for both and the average
//	    percentage improvement (paper: ~0%, 6%, 9%, 14% for K = 2..5).
//	BenchmarkMapperSpeed_* — the Section 4.2 speed claim (Chortle 1x-10x
//	    faster than MIS), timed on the largest circuit (des).
//	BenchmarkSharedCache — each suite circuit at K=2..5 through a fresh
//	    (cold) and a warmed cross-run shape cache.
//	BenchmarkReadBLIF, BenchmarkWriteLUTBLIF — the byte layers every map
//	    crosses: parsing the twelve circuits, writing their K=4 mappings.
//	BenchmarkMapPath — the whole path e2ebench's paper_tree workload
//	    times, BLIF bytes in to LUT BLIF bytes out, for profiling.
//	BenchmarkFigure2Mapping — the Figure 1/2 worked example at K=3.
//	BenchmarkFigure7Decomposition — the Figure 7 wide-node search.
//	BenchmarkNodeSplitting_* — Section 3.1.4: exhaustive search vs the
//	    split heuristic on a fanin-14 node (same LUT count, less time).
//	BenchmarkAblation* — design-choice ablations called out in DESIGN.md
//	    (decomposition search; fanout-logic duplication, the paper's
//	    future work; the baseline's greedy duplication model).
//
// Absolute times are host-dependent; the paper's shape is carried by
// the reported custom metrics (LUT counts and percentages).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/core"
	"chortle/internal/mislib"
	"chortle/internal/mismap"
	"chortle/internal/network"
)

// optimizedSuite caches the mini-MIS-optimized benchmark networks; the
// optimization is the (untimed) experimental setup, identical for both
// mappers, exactly as in the paper.
var (
	suiteOnce sync.Once
	suiteNets map[string]*network.Network
)

func optimizedSuite(b *testing.B) map[string]*network.Network {
	b.Helper()
	suiteOnce.Do(func() {
		suiteNets = make(map[string]*network.Network)
		for _, c := range bench.Suite() {
			nw, err := bench.Optimized(c)
			if err != nil {
				b.Fatalf("preparing %s: %v", c.Name, err)
			}
			suiteNets[c.Name] = nw
		}
	})
	return suiteNets
}

// benchTable runs one paper table: both mappers over the whole suite.
func benchTable(b *testing.B, k int) {
	nets := optimizedSuite(b)
	b.ResetTimer()
	var misTotal, chortleTotal int
	var diffSum float64
	for i := 0; i < b.N; i++ {
		misTotal, chortleTotal, diffSum = 0, 0, 0
		for _, name := range SuiteNames() {
			nw := nets[name]
			mres, err := MapBaseline(nw, k)
			if err != nil {
				b.Fatal(err)
			}
			cres, err := Map(nw, DefaultOptions(k))
			if err != nil {
				b.Fatal(err)
			}
			misTotal += mres.LUTs
			chortleTotal += cres.LUTs
			diffSum += 100 * float64(mres.LUTs-cres.LUTs) / float64(mres.LUTs)
		}
	}
	b.ReportMetric(float64(misTotal), "luts-mis")
	b.ReportMetric(float64(chortleTotal), "luts-chortle")
	b.ReportMetric(diffSum/float64(len(SuiteNames())), "avg-diff-%")
}

func BenchmarkTable1_K2(b *testing.B) { benchTable(b, 2) }
func BenchmarkTable2_K3(b *testing.B) { benchTable(b, 3) }
func BenchmarkTable3_K4(b *testing.B) { benchTable(b, 4) }
func BenchmarkTable4_K5(b *testing.B) { benchTable(b, 5) }

// Mapper speed on the largest benchmark (Section 4.2: "The execution
// speed of Chortle ranges from a factor of 1 to 10 times faster than
// MIS II"). Compare ns/op of the two sub-benchmarks.
func BenchmarkMapperSpeed_Chortle_des(b *testing.B) {
	nw := optimizedSuite(b)["des"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(nw, DefaultOptions(5)); err != nil {
			b.Fatal(err)
		}
	}
}

// The priority-cut engine on the same circuit and K, with allocation
// accounting (EXPERIMENTS.md tracks its ns/op and allocs/op).
func BenchmarkMapperSpeed_Cut_des_K5(b *testing.B) {
	nw := optimizedSuite(b)["des"]
	o := DefaultOptions(5)
	o.Engine = EngineCut
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(nw, o); err != nil {
			b.Fatal(err)
		}
	}
}

// The same speed benchmark at the paper's headline K=4, with allocation
// accounting — the figure EXPERIMENTS.md tracks across revisions.
func BenchmarkMapperSpeed_Chortle_des_K4(b *testing.B) {
	nw := optimizedSuite(b)["des"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(nw, DefaultOptions(4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapperSpeed_MIS_des(b *testing.B) {
	nw := optimizedSuite(b)["des"]
	lib, err := mislib.ForK(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mismap.Map(nw, lib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedCache times one map of each paper circuit at K=2..5
// through the cross-run shape cache. cold maps through a fresh cache
// per op, so every shape is solved and published; warm maps through a
// cache that already holds the circuit, so every shape is a verified
// hit whose DP is rebound and reconstructed. Warm slower than cold means
// the cache costs that circuit time. Every row starts its timer on a
// collected heap, so no row pays for the garbage of the rows before it.
func BenchmarkSharedCache(b *testing.B) {
	nets := optimizedSuite(b)
	for _, name := range SuiteNames() {
		nw := nets[name]
		for k := 2; k <= 5; k++ {
			opts := DefaultOptions(k)
			b.Run(fmt.Sprintf("%s/k%d/cold", name, k), func(b *testing.B) {
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := opts
					o.SharedCache = NewSharedCache(SharedCacheConfig{})
					if _, err := Map(nw, o); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/k%d/warm", name, k), func(b *testing.B) {
				o := opts
				o.SharedCache = NewSharedCache(SharedCacheConfig{})
				if _, err := Map(nw, o); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Map(nw, o)
					if err != nil {
						b.Fatal(err)
					}
					if res.CacheMisses != 0 {
						b.Fatalf("warm map missed %d shapes", res.CacheMisses)
					}
				}
			})
		}
	}
}

// suiteBLIF renders the twelve optimized paper circuits as BLIF text,
// in table order: the bytes a user hands the reader.
func suiteBLIF(b *testing.B) []string {
	b.Helper()
	nets := optimizedSuite(b)
	var out []string
	for _, name := range SuiteNames() {
		var sb strings.Builder
		if err := WriteBLIF(&sb, nets[name]); err != nil {
			b.Fatal(err)
		}
		out = append(out, sb.String())
	}
	return out
}

// BLIF bytes in: one op parses all twelve paper circuits.
func BenchmarkReadBLIF(b *testing.B) {
	texts := suiteBLIF(b)
	n := 0
	for _, s := range texts {
		n += len(s)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range texts {
			if _, err := ReadBLIF(strings.NewReader(s)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// LUT bytes out: one op writes the K=4 mappings of all twelve paper
// circuits.
func BenchmarkWriteLUTBLIF(b *testing.B) {
	nets := optimizedSuite(b)
	var circuits []*Circuit
	n := 0
	for _, name := range SuiteNames() {
		res, err := Map(nets[name], DefaultOptions(4))
		if err != nil {
			b.Fatal(err)
		}
		circuits = append(circuits, res.Circuit)
		var sb strings.Builder
		if err := res.Circuit.WriteBLIF(&sb); err != nil {
			b.Fatal(err)
		}
		n += sb.Len()
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range circuits {
			if err := c.WriteBLIF(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMapPath is one op of the path e2ebench's paper_tree workload
// times, as a benchmark that takes -cpuprofile and -memprofile: each of
// the twelve paper circuits is read from its BLIF, mapped at K=2..5 and
// written as LUT BLIF into a bytes.Buffer, 48 maps in all.
func BenchmarkMapPath(b *testing.B) {
	texts := suiteBLIF(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range texts {
			for k := 2; k <= 5; k++ {
				nw, err := ReadBLIF(strings.NewReader(s))
				if err != nil {
					b.Fatal(err)
				}
				res, err := MapCtx(ctx, nw, DefaultOptions(k))
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.Circuit.WriteBLIF(&buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// figure1Network rebuilds the paper's running example.
func figure1Network() *network.Network {
	nw := network.New("figure1")
	a := nw.AddInput("a")
	bb := nw.AddInput("b")
	c := nw.AddInput("c")
	d := nw.AddInput("d")
	e := nw.AddInput("e")
	g1 := nw.AddGate("g1", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: bb})
	g2 := nw.AddGate("g2", network.OpOr, network.Fanin{Node: c, Invert: true}, network.Fanin{Node: d})
	g3 := nw.AddGate("g3", network.OpOr, network.Fanin{Node: g1}, network.Fanin{Node: g2})
	g4 := nw.AddGate("g4", network.OpAnd, network.Fanin{Node: g2}, network.Fanin{Node: e})
	nw.MarkOutput("y", g3, false)
	nw.MarkOutput("z", g4, true)
	return nw
}

func BenchmarkFigure2Mapping(b *testing.B) {
	nw := figure1Network()
	luts := 0
	for i := 0; i < b.N; i++ {
		res, err := Map(nw, DefaultOptions(3))
		if err != nil {
			b.Fatal(err)
		}
		luts = res.LUTs
	}
	b.ReportMetric(float64(luts), "luts")
}

func BenchmarkFigure7Decomposition(b *testing.B) {
	nw := network.New("figure7")
	var fins []network.Fanin
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		fins = append(fins, network.Fanin{Node: nw.AddInput(name)})
	}
	g := nw.AddGate("g", network.OpOr, fins...)
	nw.MarkOutput("y", g, false)
	luts := 0
	for i := 0; i < b.N; i++ {
		res, err := Map(nw, DefaultOptions(4))
		if err != nil {
			b.Fatal(err)
		}
		luts = res.LUTs
	}
	b.ReportMetric(float64(luts), "luts")
}

// wideNode builds a single gate with the given fanin, the Section 3.1.4
// workload: above fanin ten the exhaustive search explodes and splitting
// kicks in.
func wideNode(fanin int) *network.Network {
	nw := network.New("wide")
	var fins []network.Fanin
	for i := 0; i < fanin; i++ {
		fins = append(fins, network.Fanin{Node: nw.AddInput("x" + string(rune('a'+i)))})
	}
	g := nw.AddGate("g", network.OpAnd, fins...)
	nw.MarkOutput("y", g, false)
	return nw
}

func BenchmarkNodeSplitting_Exact_fanin14(b *testing.B) {
	nw := wideNode(14)
	opts := DefaultOptions(5)
	opts.SplitThreshold = 14 // no splitting: exact 3^14 subset DP
	luts := 0
	for i := 0; i < b.N; i++ {
		res, err := Map(nw, opts)
		if err != nil {
			b.Fatal(err)
		}
		luts = res.LUTs
	}
	b.ReportMetric(float64(luts), "luts")
}

func BenchmarkNodeSplitting_Split_fanin14(b *testing.B) {
	nw := wideNode(14)
	opts := DefaultOptions(5) // paper threshold 10: node is split
	luts := 0
	for i := 0; i < b.N; i++ {
		res, err := Map(nw, opts)
		if err != nil {
			b.Fatal(err)
		}
		luts = res.LUTs
	}
	b.ReportMetric(float64(luts), "luts")
}

// Ablation: the decomposition search (the paper's central feature)
// against plain utilization-division mapping, over the whole suite.
func BenchmarkAblationDecomposition(b *testing.B) {
	nets := optimizedSuite(b)
	var on, off int
	for i := 0; i < b.N; i++ {
		on, off = 0, 0
		for _, name := range SuiteNames() {
			o := DefaultOptions(4)
			res, err := Map(nets[name], o)
			if err != nil {
				b.Fatal(err)
			}
			on += res.LUTs
			o.DisableDecomposition = true
			res, err = Map(nets[name], o)
			if err != nil {
				b.Fatal(err)
			}
			off += res.LUTs
		}
	}
	b.ReportMetric(float64(on), "luts-with-decomp")
	b.ReportMetric(float64(off), "luts-without")
}

// Ablation: Chortle's future-work extension — logic duplication at
// fanout nodes (Conclusions: "optimizations that may result from the
// duplication of logic at fanout nodes").
func BenchmarkAblationFanoutDuplication(b *testing.B) {
	nets := optimizedSuite(b)
	var plain, dup int
	for i := 0; i < b.N; i++ {
		plain, dup = 0, 0
		for _, name := range SuiteNames() {
			res, err := Map(nets[name], DefaultOptions(4))
			if err != nil {
				b.Fatal(err)
			}
			plain += res.LUTs
			o := DefaultOptions(4)
			o.DuplicateFanoutLogic = true
			res, err = Map(nets[name], o)
			if err != nil {
				b.Fatal(err)
			}
			dup += res.LUTs
		}
	}
	b.ReportMetric(float64(plain), "luts-plain")
	b.ReportMetric(float64(dup), "luts-duplicated")
}

// Ablation: the baseline's greedy fanout duplication (the MIS II
// behaviour of Section 4.2) on versus off.
func BenchmarkAblationMISGreedyDup(b *testing.B) {
	nets := optimizedSuite(b)
	lib, err := mislib.ForK(4)
	if err != nil {
		b.Fatal(err)
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with, without = 0, 0
		for _, name := range SuiteNames() {
			res, err := mismap.Map(nets[name], lib)
			if err != nil {
				b.Fatal(err)
			}
			with += res.LUTs
			res, err = mismap.MapWithOptions(nets[name], lib, mismap.Options{})
			if err != nil {
				b.Fatal(err)
			}
			without += res.LUTs
		}
	}
	b.ReportMetric(float64(with), "luts-greedy-dup")
	b.ReportMetric(float64(without), "luts-clean-trees")
}

// Chortle core scaling: per-tree DP cost against K.
func BenchmarkMapScalingK(b *testing.B) {
	nets := optimizedSuite(b)
	for _, k := range []int{2, 3, 4, 5, 6} {
		k := k
		b.Run(kName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Map(nets["pair"], DefaultOptions(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func kName(k int) string { return "K" + string(rune('0'+k)) }

// Reference check kept honest: the exhaustive paper-literal search and
// the production DP agree on the Figure 1 example (also timed, to show
// why the subset DP matters).
func BenchmarkReferenceSearch(b *testing.B) {
	nw := figure1Network()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReferenceTreeCosts(nw, core.DefaultOptions(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: post-mapping LUT repacking (reconvergence recovery, a step
// toward the paper's reconvergent-fanout future work). The count
// benchmark — a pure XOR/carry chain — is where the paper's analysis
// predicts the largest recovery.
func BenchmarkExtensionRepack(b *testing.B) {
	nets := optimizedSuite(b)
	var plain, packed, countPlain, countPacked int
	for i := 0; i < b.N; i++ {
		plain, packed = 0, 0
		for _, name := range SuiteNames() {
			res, err := Map(nets[name], DefaultOptions(3))
			if err != nil {
				b.Fatal(err)
			}
			plain += res.LUTs
			o := DefaultOptions(3)
			o.RepackLUTs = true
			pres, err := Map(nets[name], o)
			if err != nil {
				b.Fatal(err)
			}
			packed += pres.Circuit.Count()
			if name == "count" {
				countPlain, countPacked = res.LUTs, pres.Circuit.Count()
			}
		}
	}
	b.ReportMetric(float64(plain), "luts-plain")
	b.ReportMetric(float64(packed), "luts-repacked")
	b.ReportMetric(float64(countPlain), "count-plain")
	b.ReportMetric(float64(countPacked), "count-repacked")
}

// Extension: commercial-architecture block packing (XC3000-style CLBs),
// the paper's last future-work item.
func BenchmarkExtensionCLBPack(b *testing.B) {
	nets := optimizedSuite(b)
	var luts, clbs int
	for i := 0; i < b.N; i++ {
		luts, clbs = 0, 0
		for _, name := range SuiteNames() {
			res, err := Map(nets[name], DefaultOptions(4))
			if err != nil {
				b.Fatal(err)
			}
			luts += res.LUTs
			clbs += res.Circuit.PackCLBs(XC3000)
		}
	}
	b.ReportMetric(float64(luts), "luts")
	b.ReportMetric(float64(clbs), "xc3000-clbs")
}

// Extension: depth-oriented mapping (Chortle-d direction) — total depth
// across the suite's circuits, area mode vs depth mode at K=5.
func BenchmarkExtensionDepthMode(b *testing.B) {
	nets := optimizedSuite(b)
	var areaDepth, depthDepth, areaLUTs, depthLUTs int
	for i := 0; i < b.N; i++ {
		areaDepth, depthDepth, areaLUTs, depthLUTs = 0, 0, 0, 0
		for _, name := range SuiteNames() {
			res, err := Map(nets[name], DefaultOptions(5))
			if err != nil {
				b.Fatal(err)
			}
			s, err := res.Circuit.Stats()
			if err != nil {
				b.Fatal(err)
			}
			areaDepth += s.Depth
			areaLUTs += res.LUTs

			o := DefaultOptions(5)
			o.OptimizeDepth = true
			res, err = Map(nets[name], o)
			if err != nil {
				b.Fatal(err)
			}
			s, err = res.Circuit.Stats()
			if err != nil {
				b.Fatal(err)
			}
			depthDepth += s.Depth
			depthLUTs += res.LUTs
		}
	}
	b.ReportMetric(float64(areaDepth), "sum-depth-area-mode")
	b.ReportMetric(float64(depthDepth), "sum-depth-depth-mode")
	b.ReportMetric(float64(areaLUTs), "luts-area-mode")
	b.ReportMetric(float64(depthLUTs), "luts-depth-mode")
}

// Extension: the Chortle-crf-style bin-packing strategy vs the paper's
// exhaustive search — area gap and speed on the full suite at K=5.
func BenchmarkStrategyExhaustive(b *testing.B) {
	nets := optimizedSuite(b)
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, name := range SuiteNames() {
			res, err := Map(nets[name], DefaultOptions(5))
			if err != nil {
				b.Fatal(err)
			}
			total += res.LUTs
		}
	}
	b.ReportMetric(float64(total), "luts")
}

func BenchmarkStrategyBinPack(b *testing.B) {
	nets := optimizedSuite(b)
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, name := range SuiteNames() {
			o := DefaultOptions(5)
			o.Strategy = StrategyBinPack
			res, err := Map(nets[name], o)
			if err != nil {
				b.Fatal(err)
			}
			total += res.LUTs
		}
	}
	b.ReportMetric(float64(total), "luts")
}

// Extended (non-paper) circuits: classic MCNC two-level functions
// mapped by both mappers at K=5, widening the workload spectrum.
func BenchmarkExtendedSuite(b *testing.B) {
	nets := make(map[string]*network.Network)
	for _, name := range ExtendedSuiteNames() {
		nw, err := BenchmarkNetwork(name)
		if err != nil {
			b.Fatal(err)
		}
		nets[name] = nw
	}
	b.ResetTimer()
	var mis, ch int
	for i := 0; i < b.N; i++ {
		mis, ch = 0, 0
		for _, name := range ExtendedSuiteNames() {
			mres, err := MapBaseline(nets[name], 5)
			if err != nil {
				b.Fatal(err)
			}
			cres, err := Map(nets[name], DefaultOptions(5))
			if err != nil {
				b.Fatal(err)
			}
			mis += mres.LUTs
			ch += cres.LUTs
		}
	}
	b.ReportMetric(float64(mis), "luts-mis")
	b.ReportMetric(float64(ch), "luts-chortle")
}

// Extension: cost-aware fanout duplication (the profitable form of the
// paper's future-work item) on the smaller suite circuits.
func BenchmarkExtensionCostAwareDup(b *testing.B) {
	nets := optimizedSuite(b)
	circuits := []string{"9symml", "alu2", "count", "apex7", "frg1"}
	var plain, dup, accepted int
	for i := 0; i < b.N; i++ {
		plain, dup, accepted = 0, 0, 0
		for _, name := range circuits {
			res, err := Map(nets[name], DefaultOptions(4))
			if err != nil {
				b.Fatal(err)
			}
			plain += res.LUTs
			dres, acc, err := MapDuplicateCostAware(nets[name], DefaultOptions(4))
			if err != nil {
				b.Fatal(err)
			}
			dup += dres.LUTs
			accepted += acc
		}
	}
	b.ReportMetric(float64(plain), "luts-plain")
	b.ReportMetric(float64(dup), "luts-dup-aware")
	b.ReportMetric(float64(accepted), "duplications")
}

// Calibration: the naive one-LUT-per-gate floor against Chortle — the
// distance between them is the value of technology mapping at all.
func BenchmarkNaiveFloor(b *testing.B) {
	nets := optimizedSuite(b)
	var naive, smart int
	for i := 0; i < b.N; i++ {
		naive, smart = 0, 0
		for _, name := range SuiteNames() {
			nres, err := core.MapNaive(nets[name], 5)
			if err != nil {
				b.Fatal(err)
			}
			naive += nres.LUTs
			cres, err := Map(nets[name], DefaultOptions(5))
			if err != nil {
				b.Fatal(err)
			}
			smart += cres.LUTs
		}
	}
	b.ReportMetric(float64(naive), "luts-naive")
	b.ReportMetric(float64(smart), "luts-chortle")
}

// The per-tree DP pool on the largest circuit; compare worker counts
// with -cpu 1,2.
func BenchmarkParallelMapping_des(b *testing.B) {
	nw := optimizedSuite(b)["des"]
	o := DefaultOptions(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(nw, o); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel DP payoff workload: many wide (fanin-10) nodes, where each
// tree's 3^10 subset DP is expensive enough to amortize a goroutine.
func wideFanoutNetwork() *network.Network {
	nw := network.New("widepar")
	var ins []*network.Node
	for i := 0; i < 40; i++ {
		ins = append(ins, nw.AddInput("i"+string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	for g := 0; g < 48; g++ {
		var fins []network.Fanin
		for j := 0; j < 10; j++ {
			fins = append(fins, network.Fanin{Node: ins[(g*7+j*3)%len(ins)], Invert: j%3 == 0})
		}
		op := network.OpAnd
		if g%2 == 1 {
			op = network.OpOr
		}
		n := nw.AddGate("w"+string(rune('0'+g/10))+string(rune('0'+g%10)), op, fins...)
		nw.MarkOutput("o"+string(rune('0'+g/10))+string(rune('0'+g%10)), n, false)
	}
	return nw
}

// BenchmarkParallelWideTrees maps the wide-fanin workload; run it with
// -cpu 1,2 to compare the inline pool with two workers.
func BenchmarkParallelWideTrees(b *testing.B) {
	nw := wideFanoutNetwork()
	o := DefaultOptions(5)
	for i := 0; i < b.N; i++ {
		if _, err := Map(nw, o); err != nil {
			b.Fatal(err)
		}
	}
}
