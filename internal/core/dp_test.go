package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"chortle/internal/forest"
	"chortle/internal/network"
)

// computeRef is the DP kernel in its plain per-subset, per-utilization
// form: for each u it scans the singleton placements and then every
// proper submask of s, skipping those without the pivot. It is the
// reference the production kernel must match cell for cell, and it
// returns the choice of every cell as it records them.
func (dp *nodeDP) computeRef(a *dpArena, opts Options, gov *governor) []gChoice {
	f := len(dp.fanins)
	K := opts.K
	stride := K + 1
	size := 1 << uint(f)
	dp.full = uint32(size - 1)
	dp.stride = int32(stride)
	dp.g = a.allocI32(size * stride)
	dp.mmBest = a.allocI32(size)
	dp.mmBestU = a.allocI8(size)

	g, choices := dp.g, make([]gChoice, size*stride)
	g[0] = 0
	for u := 1; u <= K; u++ {
		g[u] = infinity
	}
	dp.mmBest[0], dp.mmBestU[0] = infinity, 0

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
	return choices
}

// buildDPRef is buildDPIn with the reference kernel; rec receives every
// node's recorded choices.
func buildDPRef(a *dpArena, f *forest.Forest, n *network.Node, opts Options, gov *governor, rec map[*nodeDP][]gChoice) *nodeDP {
	dp := a.allocNode()
	frs := a.allocFanins(len(n.Fanins))
	for i, e := range n.Fanins {
		fr := faninRef{edge: e}
		if !f.IsLeafEdge(e.Node) {
			fr.child = buildDPRef(a, f, e.Node, opts, gov, rec)
		}
		frs[i] = fr
	}
	*dp = nodeDP{node: n, fanins: frs}
	rec[dp] = dp.computeRef(a, opts, gov)
	return dp
}

// treeSource supplies randomWideTree's decisions: a *rand.Rand, or fuzz
// input bytes.
type treeSource interface{ Intn(n int) int }

// byteSource draws each decision from the next input byte, and 0 once
// the bytes run out.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// randomWideTree builds one fanout-free tree of at most 40 gates whose
// gates have fanin 1..10, with children nested up to three levels. One
// gate in eight is an all-leaf gate of fanin 8..10, the shape that
// dominates the paper circuits' wide nodes. Other wide gates are drawn
// less often so the test stays fast.
func randomWideTree(src treeSource) *network.Network {
	nw := network.New("wide")
	nIn, nGate := 0, 0
	var gate func(depth int) *network.Node
	gate = func(depth int) *network.Node {
		nGate++
		name := fmt.Sprintf("g%d", nGate)
		f, leaves := 1+src.Intn(4), false
		switch src.Intn(8) {
		case 0, 1, 2:
			f = 1 + src.Intn(10)
		case 3:
			f, leaves = 8+src.Intn(3), true
		}
		fins := make([]network.Fanin, f)
		for i := range fins {
			var n *network.Node
			if !leaves && depth < 3 && nGate < 40 && src.Intn(3) == 0 {
				n = gate(depth + 1)
			} else {
				n = nw.AddInput(fmt.Sprintf("x%d", nIn))
				nIn++
			}
			fins[i] = network.Fanin{Node: n, Invert: src.Intn(3) == 0}
		}
		op := network.OpAnd
		if src.Intn(2) == 1 {
			op = network.OpOr
		}
		return nw.AddGate(name, op, fins...)
	}
	nw.MarkOutput("y", gate(0), false)
	return nw
}

// TestDPTablesMatchReference pins every DP table cell, not just the
// mapped bytes: cache snapshots persist g, mmBest and mmBestU,
// reconstruction derives its choices from them, and budgets and
// provenance read the governor's work units. The production kernel must
// reproduce the reference kernel exactly on trees wider than the
// byte-pinned circuits reach, at every K, with and without the
// decomposition search.
func TestDPTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		checkDPMatchesReference(t, fmt.Sprintf("trial %d", trial), randomWideTree(rng), 2, 6)
	}
}

// FuzzDPMatchesReference runs the comparison of
// TestDPTablesMatchReference on trees built from the fuzz input: the
// first byte picks K, the rest steer randomWideTree.
func FuzzDPMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 3, 3, 2})                      // all-leaf fanin 10 at K=6
	f.Add([]byte{2, 0, 9, 0, 0, 0, 0, 1, 0, 0, 1}) // fanin 10 with children
	f.Add([]byte{1, 2, 0, 3, 1, 3, 0, 0, 5, 7, 1, 0, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 2 + int(data[0])%5
		src := byteSource(data[1:])
		checkDPMatchesReference(t, "fuzz", randomWideTree(&src), k, k)
	})
}

// checkDPMatchesReference solves the single tree of nw with both
// kernels at K = kLo..kHi, with and without the decomposition search,
// and requires equal tables, derived choices equal to the recorded ones,
// and equal work units: unmetered, and row by row under a work limit
// that the reference trips halfway.
func checkDPMatchesReference(t *testing.T, where string, nw *network.Network, kLo, kHi int) {
	t.Helper()
	f, err := forest.Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 {
		t.Fatalf("%s: %d trees, want 1", where, len(f.Roots))
	}
	root := f.Roots[0]
	for k := kLo; k <= kHi; k++ {
		for _, noDecomp := range []bool{false, true} {
			opts := DefaultOptions(k)
			opts.DisableDecomposition = noDecomp
			at := fmt.Sprintf("%s K=%d noDecomp=%v", where, k, noDecomp)
			gotGov, wantGov := &governor{}, &governor{}
			rec := make(map[*nodeDP][]gChoice)
			got := buildDPIn(new(dpArena), f, root, opts, gotGov)
			want := buildDPRef(new(dpArena), f, root, opts, wantGov, rec)
			compareDP(t, at, got, want, rec, !noDecomp)
			if gotGov.units != wantGov.units {
				t.Fatalf("%s: %d work units, reference %d", at, gotGov.units, wantGov.units)
			}

			limit := wantGov.units / 2
			gotGov, wantGov = &governor{limit: limit}, &governor{limit: limit}
			_, gotErr := solveDP(new(dpArena), f, root, opts, gotGov)
			wantErr := solveRef(f, root, opts, wantGov)
			if (gotErr == nil) != (wantErr == nil) || gotGov.units != wantGov.units {
				t.Fatalf("%s: limit %d stops at %d units (%v), reference at %d (%v)", at, limit, gotGov.units, gotErr, wantGov.units, wantErr)
			}
		}
	}
}

// solveRef is solveDP with the reference kernel.
func solveRef(f *forest.Forest, root *network.Node, opts Options, gov *governor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(*solveAbort).err
		}
	}()
	buildDPRef(new(dpArena), f, root, opts, gov, make(map[*nodeDP][]gChoice))
	return nil
}

func compareDP(t *testing.T, where string, got, want *nodeDP, rec map[*nodeDP][]gChoice, decomp bool) {
	t.Helper()
	where += " node " + got.node.Name
	if got.full != want.full || got.stride != want.stride {
		t.Fatalf("%s: full/stride %d/%d, reference %d/%d", where, got.full, got.stride, want.full, want.stride)
	}
	if got.bestCost != want.bestCost || got.bestU != want.bestU {
		t.Fatalf("%s: best %d at u=%d, reference %d at u=%d", where, got.bestCost, got.bestU, want.bestCost, want.bestU)
	}
	stride := int(want.stride)
	for i, ref := range rec[want] {
		s, u := uint32(i/stride), i%stride
		if ch := got.choiceAt(s, u, decomp); got.g[i] != want.g[i] || ch != ref {
			t.Fatalf("%s: cell s=%b u=%d is %d %+v, reference %d %+v", where, s, u, got.g[i], ch, want.g[i], ref)
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
			compareDP(t, where, got.fanins[i].child, c, rec, decomp)
		}
	}
}

// paperTreeShapes returns a representative tree of every distinct tree
// shape of the twelve optimized paper circuits, prepared as Map
// prepares them (paperForests).
func paperTreeShapes(tb testing.TB) []shapeRep {
	tb.Helper()
	prefix := shapeKeyPrefix(DefaultOptions(4))
	seen := make(map[string]bool)
	var shapes []shapeRep
	for _, f := range paperForests(tb) {
		for _, r := range f.Roots {
			if key := string(appendShapeKey(nil, f, r, prefix)); !seen[key] {
				seen[key] = true
				shapes = append(shapes, shapeRep{f, r})
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
			for _, sh := range shapes {
				if _, err := solveDP(a, sh.f, sh.root, opts, &governor{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(shapes)), "shapes")
}
