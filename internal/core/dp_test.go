package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/forest"
	"chortle/internal/network"
)

// computeRef is the DP kernel in its plain per-utilization form: for
// each u it scans the singleton placements and then every proper
// submask of s, skipping those without the pivot. It is the reference
// the production kernel must match cell for cell.
func (dp *nodeDP) computeRef(a *dpArena, opts Options, gov *governor) {
	f := len(dp.fanins)
	K := opts.K
	stride := K + 1
	size := 1 << uint(f)
	dp.full = uint32(size - 1)
	dp.stride = int32(stride)
	dp.g = a.allocI32(size * stride)
	dp.choice = a.allocChoice(size * stride)
	dp.mmBest = a.allocI32(size)
	dp.mmBestU = a.allocI8(size)

	g, choices := dp.g, dp.choice
	g[0] = 0
	choices[0] = gChoice{}
	for u := 1; u <= K; u++ {
		g[u] = infinity
		choices[u] = gChoice{}
	}

	for s := 1; s < size; s++ {
		if gov != nil {
			work := int64(stride * stride)
			if !opts.DisableDecomposition {
				work += int64(K-1) << uint(bits.OnesCount32(uint32(s)))
			}
			gov.charge(work)
		}
		row := g[s*stride : (s+1)*stride]
		ch := choices[s*stride : (s+1)*stride]
		row[0] = infinity
		ch[0] = gChoice{}
		pivot := bits.TrailingZeros32(uint32(s))
		pbit := 1 << uint(pivot)
		rest0 := g[(s^pbit)*stride:]

		for u := 2; u <= K; u++ {
			best := infinity
			var bc gChoice
			for v := 1; v <= u; v++ {
				var c int32
				if v == 1 {
					c = dp.costSignal(pivot)
				} else {
					c = dp.costMerge(pivot, v)
				}
				if c >= infinity {
					continue
				}
				r := rest0[u-v]
				if r >= infinity {
					continue
				}
				if c+r < best {
					best = c + r
					bc = gChoice{kind: choiceSingleton, v: int8(v)}
				}
			}
			if !opts.DisableDecomposition {
				for d := (s - 1) & s; d > 0; d = (d - 1) & s {
					if d&pbit == 0 || bits.OnesCount32(uint32(d)) < 2 {
						continue
					}
					c := dp.mmBest[d]
					if c >= infinity {
						continue
					}
					r := g[(s&^d)*stride+u-1]
					if r >= infinity {
						continue
					}
					if c+r < best {
						best = c + r
						bc = gChoice{kind: choiceIntermediate, d: uint32(d)}
					}
				}
			}
			row[u] = best
			ch[u] = bc
		}

		mb := infinity
		var mu int8
		for u := 2; u <= K; u++ {
			if row[u] < infinity && row[u]+1 < mb {
				mb = row[u] + 1
				mu = int8(u)
			}
		}
		dp.mmBest[s] = mb
		dp.mmBestU[s] = mu

		switch {
		case s == pbit:
			row[1] = dp.costSignal(pivot)
			ch[1] = gChoice{kind: choiceSingleton, v: 1}
		case !opts.DisableDecomposition:
			row[1] = mb
			ch[1] = gChoice{kind: choiceIntermediate, d: uint32(s)}
		default:
			row[1] = infinity
			ch[1] = gChoice{}
		}
	}

	dp.bestCost = infinity
	for u := 2; u <= K; u++ {
		if c := dp.gAt(dp.full, u); c < infinity && c+1 < dp.bestCost {
			dp.bestCost = c + 1
			dp.bestU = u
		}
	}
}

// buildDPRef is buildDPIn with the reference kernel.
func buildDPRef(a *dpArena, f *forest.Forest, n *network.Node, opts Options, gov *governor) *nodeDP {
	dp := a.allocNode()
	frs := a.allocFanins(len(n.Fanins))
	for i, e := range n.Fanins {
		fr := faninRef{edge: e}
		if !f.IsLeafEdge(e.Node) {
			fr.child = buildDPRef(a, f, e.Node, opts, gov)
		}
		frs[i] = fr
	}
	*dp = nodeDP{node: n, fanins: frs}
	dp.computeRef(a, opts, gov)
	return dp
}

// randomWideTree builds one fanout-free tree whose gates have fanin
// 1..10, with children nested up to three levels. Wide gates are drawn
// less often so the test stays fast.
func randomWideTree(rng *rand.Rand) *network.Network {
	nw := network.New("wide")
	nIn, nGate := 0, 0
	var gate func(depth int) *network.Node
	gate = func(depth int) *network.Node {
		f := 1 + rng.Intn(4)
		if rng.Intn(3) == 0 {
			f = 1 + rng.Intn(10)
		}
		fins := make([]network.Fanin, f)
		for i := range fins {
			var n *network.Node
			if depth < 3 && rng.Intn(3) == 0 {
				n = gate(depth + 1)
			} else {
				n = nw.AddInput(fmt.Sprintf("x%d", nIn))
				nIn++
			}
			fins[i] = network.Fanin{Node: n, Invert: rng.Intn(3) == 0}
		}
		op := network.OpAnd
		if rng.Intn(2) == 1 {
			op = network.OpOr
		}
		nGate++
		return nw.AddGate(fmt.Sprintf("g%d", nGate), op, fins...)
	}
	nw.MarkOutput("y", gate(0), false)
	return nw
}

// TestDPTablesMatchReference pins every DP table cell, not just the
// mapped bytes: cache snapshots persist g, choice, mmBest and mmBestU,
// and budgets and provenance read the governor's work units. The
// production kernel must reproduce the reference kernel exactly on
// trees wider than the byte-pinned circuits reach, at every K, with and
// without the decomposition search.
func TestDPTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		nw := randomWideTree(rng)
		f, err := forest.Decompose(nw)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Roots) != 1 {
			t.Fatalf("trial %d: %d trees, want 1", trial, len(f.Roots))
		}
		root := f.Roots[0]
		for k := 2; k <= 6; k++ {
			for _, noDecomp := range []bool{false, true} {
				opts := DefaultOptions(k)
				opts.DisableDecomposition = noDecomp
				gotGov, wantGov := &governor{}, &governor{}
				got := buildDPIn(new(dpArena), f, root, opts, gotGov)
				want := buildDPRef(new(dpArena), f, root, opts, wantGov)
				where := fmt.Sprintf("trial %d K=%d noDecomp=%v", trial, k, noDecomp)
				compareDP(t, where, got, want)
				if gotGov.units != wantGov.units {
					t.Fatalf("%s: %d work units, reference %d", where, gotGov.units, wantGov.units)
				}
			}
		}
	}
}

func compareDP(t *testing.T, where string, got, want *nodeDP) {
	t.Helper()
	where += " node " + got.node.Name
	if got.full != want.full || got.stride != want.stride {
		t.Fatalf("%s: full/stride %d/%d, reference %d/%d", where, got.full, got.stride, want.full, want.stride)
	}
	if got.bestCost != want.bestCost || got.bestU != want.bestU {
		t.Fatalf("%s: best %d at u=%d, reference %d at u=%d", where, got.bestCost, got.bestU, want.bestCost, want.bestU)
	}
	for i := range want.g {
		if got.g[i] != want.g[i] || got.choice[i] != want.choice[i] {
			s, u := i/int(want.stride), i%int(want.stride)
			t.Fatalf("%s: cell s=%b u=%d is %d %+v, reference %d %+v", where, s, u, got.g[i], got.choice[i], want.g[i], want.choice[i])
		}
	}
	for s := range want.mmBest {
		if got.mmBest[s] != want.mmBest[s] || got.mmBestU[s] != want.mmBestU[s] {
			t.Fatalf("%s: mm(%b) %d at u=%d, reference %d at u=%d", where, s, got.mmBest[s], got.mmBestU[s], want.mmBest[s], want.mmBestU[s])
		}
	}
	for i := range want.fanins {
		if (got.fanins[i].child == nil) != (want.fanins[i].child == nil) {
			t.Fatalf("%s: fanin %d leaf/child mismatch", where, i)
		}
		if c := want.fanins[i].child; c != nil {
			compareDP(t, where, got.fanins[i].child, c)
		}
	}
}

// paperTreeShapes prepares the twelve optimized paper circuits the way
// Map does (clone, sweep, split wide nodes, decompose into trees) and
// returns one shape entry, holding a representative tree, for every
// distinct tree shape among them.
func paperTreeShapes(tb testing.TB) []*shapeEntry {
	tb.Helper()
	opts := DefaultOptions(4)
	seed := shapeSeed(opts)
	memo := newShapeMemo()
	var shapes []*shapeEntry
	for _, c := range bench.Suite() {
		in, err := bench.Optimized(c)
		if err != nil {
			tb.Fatal(err)
		}
		nw := in.Clone()
		nw.Sweep()
		splitWideNodes(nw, opts.SplitThreshold)
		f, err := forest.Decompose(nw)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range f.Roots {
			si := treeShapeInfo(f, r, seed)
			if memo.lookup(f, r, si) == nil {
				e := &shapeEntry{f: f, rep: r}
				memo.insert(si, e)
				shapes = append(shapes, e)
			}
		}
	}
	return shapes
}

// BenchmarkTreeSolveSuite times the DP kernel alone on the paper's
// workload: one op solves every distinct tree shape of the twelve paper
// circuits at K=2..5, in sequence on one arena that is rewound per K,
// as one Map's solves fill one arena.
func BenchmarkTreeSolveSuite(b *testing.B) {
	shapes := paperTreeShapes(b)
	a := acquireArena()
	defer a.release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 2; k <= 5; k++ {
			opts := DefaultOptions(k)
			a.reset()
			for _, e := range shapes {
				if _, err := solveDP(a, e.f, e.rep, opts, &governor{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(shapes)), "shapes")
}
