package core

import (
	"math/rand"
	"runtime"
	"testing"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/verify"
)

// figure1 is the running example network of the paper (Figures 1 and 2):
// five inputs, four gates, one internal fanout node, two outputs.
func figure1() *network.Network {
	nw := network.New("figure1")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	d := nw.AddInput("d")
	e := nw.AddInput("e")
	g1 := nw.AddGate("g1", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	g2 := nw.AddGate("g2", network.OpOr, network.Fanin{Node: c, Invert: true}, network.Fanin{Node: d})
	g3 := nw.AddGate("g3", network.OpOr, network.Fanin{Node: g1}, network.Fanin{Node: g2})
	g4 := nw.AddGate("g4", network.OpAnd, network.Fanin{Node: g2}, network.Fanin{Node: e})
	nw.MarkOutput("y", g3, false)
	nw.MarkOutput("z", g4, true)
	return nw
}

func TestMapFigure1(t *testing.T) {
	nw := figure1()
	for k := 2; k <= 6; k++ {
		res, err := Map(nw, DefaultOptions(k))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := verify.NetworkVsCircuit(nw, res.Circuit, 0, 1); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.LUTs != res.PredictedCost {
			t.Fatalf("K=%d: emitted %d != predicted %d", k, res.LUTs, res.PredictedCost)
		}
		if res.Trees != 3 {
			t.Fatalf("K=%d: trees = %d, want 3 (g2, g3, g4)", k, res.Trees)
		}
	}
	// With 3-input LUTs the three trees need one LUT each (Figure 2
	// shows a 3-LUT realization of this network).
	res, _ := Map(nw, DefaultOptions(3))
	if res.LUTs != 3 {
		t.Fatalf("K=3: LUTs = %d, want 3", res.LUTs)
	}
}

// mkAndTree builds a random-shaped fanout-free tree of `op` gates with
// exactly nLeaves distinct primary-input leaf edges.
func mkTree(rng *rand.Rand, op network.Op, nLeaves int) *network.Network {
	nw := network.New("tree")
	type sig struct{ n *network.Node }
	var avail []sig
	for i := 0; i < nLeaves; i++ {
		avail = append(avail, sig{nw.AddInput(inName(i))})
	}
	g := 0
	for len(avail) > 1 {
		k := 2 + rng.Intn(3)
		if k > len(avail) {
			k = len(avail)
		}
		var fins []network.Fanin
		for i := 0; i < k; i++ {
			j := rng.Intn(len(avail))
			fins = append(fins, network.Fanin{Node: avail[j].n, Invert: rng.Intn(4) == 0})
			avail = append(avail[:j], avail[j+1:]...)
		}
		g++
		avail = append(avail, sig{nw.AddGate(gName(g), op, fins...)})
	}
	nw.MarkOutput("y", avail[0].n, false)
	return nw
}

func inName(i int) string { return "x" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
func gName(i int) string  { return "g" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

// TestSingleNodeClosedForm checks the decomposition search against an
// independent closed form: a single gate with L fanin leaves maps to
// exactly ceil((L-1)/(K-1)) K-LUTs, because decomposing one node can
// rebalance its fanins freely. (For multi-node trees the closed form is
// only a lower bound: Chortle decomposes nodes but never re-associates
// logic across existing node boundaries, so a rigid tree shape can
// force imperfect packing.)
func TestSingleNodeClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		op := network.OpAnd
		if trial%2 == 1 {
			op = network.OpOr
		}
		nLeaves := 2 + rng.Intn(9) // up to 10: below the split threshold
		nw := network.New("one")
		var fins []network.Fanin
		for i := 0; i < nLeaves; i++ {
			fins = append(fins, network.Fanin{Node: nw.AddInput(inName(i)), Invert: rng.Intn(4) == 0})
		}
		g := nw.AddGate("g", op, fins...)
		nw.MarkOutput("y", g, false)
		for k := 2; k <= 5; k++ {
			res, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			want := (nLeaves - 2 + k - 1) / (k - 1) // ceil((L-1)/(K-1))
			if want < 1 {
				want = 1
			}
			if res.LUTs != want {
				t.Fatalf("trial %d: %v node with %d fanins, K=%d: got %d LUTs, want %d",
					trial, op, nLeaves, k, res.LUTs, want)
			}
			if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
		}
	}
}

// TestTreeLowerAndUpperBounds sanity-checks general trees: the LUT count
// can never beat the information-theoretic packing bound and never
// exceeds one LUT per gate.
func TestTreeLowerAndUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		op := network.OpAnd
		if trial%2 == 1 {
			op = network.OpOr
		}
		nLeaves := 2 + rng.Intn(14)
		nw := mkTree(rng, op, nLeaves)
		for k := 2; k <= 5; k++ {
			res, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			lower := (nLeaves - 2 + k - 1) / (k - 1)
			if lower < 1 {
				lower = 1
			}
			// Upper bound: mapping each gate on its own needs
			// ceil((fanin-1)/(K-1)) LUTs per gate.
			upper := 0
			for _, n := range nw.Nodes {
				if !n.IsInput() {
					upper += (len(n.Fanins) - 2 + k - 1) / (k - 1)
					if len(n.Fanins) == 1 {
						upper++
					}
				}
			}
			if res.LUTs < lower {
				t.Fatalf("trial %d K=%d: %d LUTs beats the packing bound %d", trial, k, res.LUTs, lower)
			}
			if res.LUTs > upper {
				t.Fatalf("trial %d K=%d: %d LUTs exceeds naive bound %d", trial, k, res.LUTs, upper)
			}
			if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
		}
	}
}

// randomMixedTree builds a fanout-free tree with mixed AND/OR gates.
func randomMixedTree(rng *rand.Rand, nLeaves int) *network.Network {
	nw := network.New("mixed")
	var avail []*network.Node
	for i := 0; i < nLeaves; i++ {
		avail = append(avail, nw.AddInput(inName(i)))
	}
	g := 0
	for len(avail) > 1 {
		k := 2 + rng.Intn(3)
		if k > len(avail) {
			k = len(avail)
		}
		var fins []network.Fanin
		for i := 0; i < k; i++ {
			j := rng.Intn(len(avail))
			fins = append(fins, network.Fanin{Node: avail[j], Invert: rng.Intn(3) == 0})
			avail = append(avail[:j], avail[j+1:]...)
		}
		op := network.OpAnd
		if rng.Intn(2) == 1 {
			op = network.OpOr
		}
		g++
		avail = append(avail, nw.AddGate(gName(g), op, fins...))
	}
	nw.MarkOutput("y", avail[0], false)
	return nw
}

// TestDPMatchesExhaustiveReference validates the production subset DP
// against the paper-literal exhaustive partition/division search.
func TestDPMatchesExhaustiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		nw := randomMixedTree(rng, 2+rng.Intn(8))
		for k := 2; k <= 5; k++ {
			opts := DefaultOptions(k)
			fast, err := TreeCosts(nw, opts)
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			slow, err := ReferenceTreeCosts(nw, opts)
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			for name, fc := range fast {
				if sc, ok := slow[name]; !ok || sc != fc {
					t.Fatalf("trial %d K=%d tree %q: DP=%d reference=%d", trial, k, name, fc, sc)
				}
			}
		}
	}
}

// TestMonotonicityLemma checks the paper's Section 3.1 claim
// cost(minmap(n,U)) >= cost(minmap(n,K)) under the "utilization at most
// U" reading: minmapAtMost(u) = min over 2 <= v <= u of minmap(v) must
// be non-increasing... i.e. minmapAtMost(K) is the overall best. Under
// the literal exact-utilization reading the lemma has counterexamples —
// see TestMonotonicityCounterexample — but the algorithm's optimality
// only needs the at-most version: bestCost = min over all utilizations,
// which this test pins down.
func TestMonotonicityLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		nw := randomMixedTree(rng, 2+rng.Intn(10))
		nw.Sweep()
		k := 2 + rng.Intn(4)
		opts := DefaultOptions(k)
		splitWideNodes(nw, opts.SplitThreshold)
		f, err := forest.Decompose(nw)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range f.Roots {
			dp := buildDP(f, root, opts)
			atMost := func(u int) int32 {
				best := infinity
				for v := 2; v <= u; v++ {
					if dp.minmap(v) < best {
						best = dp.minmap(v)
					}
				}
				return best
			}
			for u := 2; u <= k; u++ {
				if atMost(u) < atMost(k) {
					t.Fatalf("trial %d: at-most minmap(%d)=%d < at-most minmap(K=%d)=%d at %q",
						trial, u, atMost(u), k, atMost(k), root.Name)
				}
				if dp.minmap(u) < dp.bestCost {
					t.Fatalf("trial %d: minmap(%d) below bestCost at %q", trial, u, root.Name)
				}
			}
			if dp.bestCost != atMost(k) {
				t.Fatalf("trial %d: bestCost %d != min over utilizations %d at %q",
					trial, dp.bestCost, atMost(k), root.Name)
			}
		}
	}
}

// TestMonotonicityCounterexample documents a reproduction finding: with
// utilization read as *exactly* U (Definition 3's literal wording), the
// paper's lemma cost(minmap(n,U)) >= cost(minmap(n,K)) fails. In this
// tree the root's child g3 has minmap(2)=3, minmap(3)=2, minmap(4)=1;
// granting the root's child-slot 2 pins (utilization 4 overall) costs
// more than feeding the finished child signal (utilization 3), because
// merging g3's cheap utilization-4 root would overshoot K=4.
func TestMonotonicityCounterexample(t *testing.T) {
	nw := network.New("cex")
	xa := nw.AddInput("xa")
	xb := nw.AddInput("xb")
	xc := nw.AddInput("xc")
	xd := nw.AddInput("xd")
	xe := nw.AddInput("xe")
	xf := nw.AddInput("xf")
	g1 := nw.AddGate("g1", network.OpAnd, network.Fanin{Node: xc}, network.Fanin{Node: xf, Invert: true})
	g2 := nw.AddGate("g2", network.OpOr, network.Fanin{Node: xd}, network.Fanin{Node: xa, Invert: true})
	g3 := nw.AddGate("g3", network.OpOr, network.Fanin{Node: g1, Invert: true}, network.Fanin{Node: g2})
	g4 := nw.AddGate("g4", network.OpAnd, network.Fanin{Node: xe}, network.Fanin{Node: g3, Invert: true}, network.Fanin{Node: xb})
	nw.MarkOutput("y", g4, false)

	f, err := forest.Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 {
		t.Fatalf("expected a single tree, got %d", len(f.Roots))
	}
	dp := buildDP(f, f.Roots[0], DefaultOptions(4))
	if dp.minmap(3) != 2 || dp.minmap(4) != 3 {
		t.Fatalf("counterexample drifted: minmap(3)=%d minmap(4)=%d, want 2 and 3",
			dp.minmap(3), dp.minmap(4))
	}
	if dp.bestCost != 2 {
		t.Fatalf("bestCost = %d, want 2", dp.bestCost)
	}
	// The mapper must still pick the 2-LUT mapping and stay correct.
	res, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs != 2 {
		t.Fatalf("mapped %d LUTs, want 2", res.LUTs)
	}
	if err := verify.NetworkVsCircuit(nw, res.Circuit, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMapEquivalenceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		nw := randomDAG(rng, 5+rng.Intn(4), 8+rng.Intn(20))
		for k := 2; k <= 6; k++ {
			res, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if err := verify.NetworkVsCircuit(nw, res.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
		}
	}
}

// randomDAG builds a random multi-output DAG with reconvergence and
// internal fanout.
func randomDAG(rng *rand.Rand, nIn, nGates int) *network.Network {
	nw := network.New("dag")
	var pool []*network.Node
	for i := 0; i < nIn; i++ {
		pool = append(pool, nw.AddInput(inName(i)))
	}
	for i := 0; i < nGates; i++ {
		op := network.OpAnd
		if rng.Intn(2) == 1 {
			op = network.OpOr
		}
		k := 2 + rng.Intn(4)
		seen := map[*network.Node]bool{}
		var fins []network.Fanin
		for len(fins) < k && len(fins) < len(pool) {
			n := pool[rng.Intn(len(pool))]
			if seen[n] {
				continue
			}
			seen[n] = true
			fins = append(fins, network.Fanin{Node: n, Invert: rng.Intn(3) == 0})
		}
		pool = append(pool, nw.AddGate(gName(i+1), op, fins...))
	}
	nw.MarkOutput("y", pool[len(pool)-1], false)
	nw.MarkOutput("z", pool[len(pool)-2], true)
	nw.MarkOutput("w", pool[len(pool)-3], false)
	nw.Sweep()
	return nw
}

func TestNodeSplittingQuality(t *testing.T) {
	// Section 3.1.4: "the mapping of a split node uses no more lookup
	// tables than the mapping of the non-split nodes". Compare wide
	// single-op nodes mapped with threshold 10 (split) vs threshold 16
	// (exact DP over the whole fanin).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		nLeaves := 11 + rng.Intn(5) // 11..15 fanin: exact still feasible
		nw := network.New("wide")
		var fins []network.Fanin
		for i := 0; i < nLeaves; i++ {
			fins = append(fins, network.Fanin{Node: nw.AddInput(inName(i)), Invert: rng.Intn(4) == 0})
		}
		op := network.OpAnd
		if trial%2 == 1 {
			op = network.OpOr
		}
		g := nw.AddGate("wide", op, fins...)
		nw.MarkOutput("y", g, false)
		for k := 2; k <= 5; k++ {
			split := DefaultOptions(k) // threshold 10 -> splits
			exact := DefaultOptions(k)
			exact.SplitThreshold = 16 // no split
			rs, err := Map(nw, split)
			if err != nil {
				t.Fatal(err)
			}
			re, err := Map(nw, exact)
			if err != nil {
				t.Fatal(err)
			}
			if rs.SplitNodes == 0 {
				t.Fatalf("trial %d: expected splitting at fanin %d", trial, nLeaves)
			}
			if rs.LUTs != re.LUTs {
				t.Fatalf("trial %d K=%d: split=%d exact=%d LUTs", trial, k, rs.LUTs, re.LUTs)
			}
			if err := verify.NetworkVsCircuit(nw, rs.Circuit, 16, 7); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDecompositionAblation(t *testing.T) {
	// Searching decompositions must never hurt, and on trees with wide
	// nodes it must help for small K.
	rng := rand.New(rand.NewSource(43))
	helped := false
	for trial := 0; trial < 30; trial++ {
		nw := randomMixedTree(rng, 4+rng.Intn(8))
		for k := 2; k <= 5; k++ {
			on := DefaultOptions(k)
			off := DefaultOptions(k)
			off.DisableDecomposition = true
			ron, err := Map(nw, on)
			if err != nil {
				t.Fatal(err)
			}
			roff, err := Map(nw, off)
			if err != nil {
				t.Fatal(err)
			}
			if ron.LUTs > roff.LUTs {
				t.Fatalf("trial %d K=%d: decomposition hurt (%d > %d)", trial, k, ron.LUTs, roff.LUTs)
			}
			if ron.LUTs < roff.LUTs {
				helped = true
			}
			if err := verify.NetworkVsCircuit(nw, roff.Circuit, 16, 3); err != nil {
				t.Fatalf("ablation mapping wrong: %v", err)
			}
		}
	}
	if !helped {
		t.Fatal("decomposition search never improved any trial; ablation is vacuous")
	}
}

func TestFanoutDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	improvedSomewhere := false
	for trial := 0; trial < 25; trial++ {
		nw := randomDAG(rng, 5, 12+rng.Intn(10))
		for k := 3; k <= 5; k++ {
			plain := DefaultOptions(k)
			dup := DefaultOptions(k)
			dup.DuplicateFanoutLogic = true
			rp, err := Map(nw, plain)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := Map(nw, dup)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.NetworkVsCircuit(nw, rd.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("duplication broke function: %v", err)
			}
			if rd.LUTs < rp.LUTs {
				improvedSomewhere = true
			}
		}
	}
	_ = improvedSomewhere // duplication is a heuristic; improvement is workload dependent
}

func TestOutputDrivenByInput(t *testing.T) {
	nw := network.New("pi")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	g := nw.AddGate("g", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	nw.MarkOutput("y", g, false)
	nw.MarkOutput("pass", a, false)
	nw.MarkOutput("npass", a, true)
	res, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs != 1 {
		t.Fatalf("LUTs = %d, want 1", res.LUTs)
	}
	if err := verify.NetworkVsCircuit(nw, res.Circuit, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	nw := figure1()
	if _, err := Map(nw, Options{K: 1, SplitThreshold: 10}); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := Map(nw, Options{K: 7, SplitThreshold: 10}); err == nil {
		t.Fatal("K=7 accepted")
	}
	if _, err := Map(nw, Options{K: 4, SplitThreshold: 1}); err == nil {
		t.Fatal("threshold 1 accepted")
	}
}

func TestSplitWideNodes(t *testing.T) {
	nw := network.New("w")
	var fins []network.Fanin
	for i := 0; i < 25; i++ {
		fins = append(fins, network.Fanin{Node: nw.AddInput(inName(i))})
	}
	g := nw.AddGate("g", network.OpAnd, fins...)
	nw.MarkOutput("y", g, false)
	before, _ := nw.Simulate(map[string]uint64{inName(3): 0})
	added := splitWideNodes(nw, 10)
	if added == 0 {
		t.Fatal("no split happened")
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nw.Nodes {
		if !n.IsInput() && len(n.Fanins) > 10 {
			t.Fatalf("node %q still has fanin %d", n.Name, len(n.Fanins))
		}
	}
	after, _ := nw.Simulate(map[string]uint64{inName(3): 0})
	if before["y"] != after["y"] {
		t.Fatal("split changed function")
	}
}

// TestRepackOption checks the reconvergence-recovery post-pass: on an
// XOR structure the repacked mapping reaches the function's true input
// count, and functionality is always preserved.
func TestRepackOption(t *testing.T) {
	// y = x XOR c, built with reconvergent fanout on both inputs.
	nw := network.New("xor")
	x := nw.AddInput("x")
	c := nw.AddInput("c")
	g1 := nw.AddGate("g1", network.OpAnd, network.Fanin{Node: x}, network.Fanin{Node: c, Invert: true})
	g2 := nw.AddGate("g2", network.OpAnd, network.Fanin{Node: x, Invert: true}, network.Fanin{Node: c})
	g3 := nw.AddGate("g3", network.OpOr, network.Fanin{Node: g1}, network.Fanin{Node: g2})
	nw.MarkOutput("y", g3, false)

	plain, err := Map(nw, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.LUTs != 2 {
		t.Fatalf("plain XOR at K=3: %d LUTs, want 2 (per-edge accounting)", plain.LUTs)
	}
	o := DefaultOptions(3)
	o.RepackLUTs = true
	packed, err := Map(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := packed.Circuit.Count(); got != 1 {
		t.Fatalf("repacked XOR: %d LUTs, want 1", got)
	}
	if err := verify.NetworkVsCircuit(nw, packed.Circuit, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRepackNeverHurtsAndPreserves runs the repack option over random
// DAGs: LUT count can only drop, and equivalence must hold.
func TestRepackNeverHurtsAndPreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	improved := false
	for trial := 0; trial < 30; trial++ {
		nw := randomDAG(rng, 5+rng.Intn(3), 10+rng.Intn(15))
		for k := 3; k <= 5; k++ {
			plain, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions(k)
			o.RepackLUTs = true
			packed, err := Map(nw, o)
			if err != nil {
				t.Fatal(err)
			}
			if packed.Circuit.Count() > plain.LUTs {
				t.Fatalf("trial %d K=%d: repack grew %d -> %d", trial, k, plain.LUTs, packed.Circuit.Count())
			}
			if packed.Circuit.Count() < plain.LUTs {
				improved = true
			}
			if err := verify.NetworkVsCircuit(nw, packed.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
		}
	}
	if !improved {
		t.Log("repack found no merges in any trial (acceptable but unusual)")
	}
}

// TestDepthMode checks the depth-oriented objective: mapped depth never
// exceeds the area-mode depth, functionality holds, and on a structure
// with a known depth trade-off the mode actually reduces levels.
func TestDepthMode(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	improved := false
	for trial := 0; trial < 30; trial++ {
		nw := randomDAG(rng, 5+rng.Intn(3), 12+rng.Intn(20))
		for k := 3; k <= 5; k++ {
			area, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions(k)
			o.OptimizeDepth = true
			depth, err := Map(nw, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.NetworkVsCircuit(nw, depth.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			sa, err := area.Circuit.Stats()
			if err != nil {
				t.Fatal(err)
			}
			sd, err := depth.Circuit.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if sd.Depth > sa.Depth {
				t.Fatalf("trial %d K=%d: depth mode deeper (%d) than area mode (%d)",
					trial, k, sd.Depth, sa.Depth)
			}
			if sd.Depth < sa.Depth {
				improved = true
			}
			if depth.LUTs < area.LUTs {
				t.Fatalf("trial %d K=%d: depth mode beat the area-optimal count (%d < %d)",
					trial, k, depth.LUTs, area.LUTs)
			}
		}
	}
	if !improved {
		t.Error("depth mode never reduced depth on any trial; objective seems inert")
	}
}

// TestDepthModeKnownTradeoff pins a concrete case: a chain where the
// area-greedy cover happens to serialize but a depth-aware division
// balances. g = AND over {x1, c1} with c1 = AND(x2, c2), c2 = AND(x3,
// x4, x5, x6): at K=4, area mode can realize the tree in 2 LUTs several
// ways (some depth 3); depth mode must find a 2-level cover.
func TestDepthModeKnownTradeoff(t *testing.T) {
	nw := network.New("chain")
	x := make([]*network.Node, 7)
	for i := range x {
		x[i] = nw.AddInput(inName(i))
	}
	c2 := nw.AddGate("c2", network.OpAnd,
		network.Fanin{Node: x[2]}, network.Fanin{Node: x[3]},
		network.Fanin{Node: x[4]}, network.Fanin{Node: x[5]})
	c1 := nw.AddGate("c1", network.OpAnd,
		network.Fanin{Node: x[1]}, network.Fanin{Node: c2})
	g := nw.AddGate("g", network.OpAnd,
		network.Fanin{Node: x[0]}, network.Fanin{Node: c1})
	nw.MarkOutput("y", g, false)

	o := DefaultOptions(4)
	o.OptimizeDepth = true
	res, err := Map(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Circuit.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth != 2 {
		t.Fatalf("depth mode found depth %d, want 2 (7 leaves, K=4)", s.Depth)
	}
	if err := verify.NetworkVsCircuit(nw, res.Circuit, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestBinPackStrategy: the crf-style packer must be functionally
// correct, never beat the exhaustive optimum on trees, and handle
// arbitrarily wide nodes without splitting.
func TestBinPackStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		nw := randomDAG(rng, 5+rng.Intn(3), 10+rng.Intn(15))
		for k := 2; k <= 5; k++ {
			exact, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions(k)
			o.Strategy = StrategyBinPack
			packed, err := Map(nw, o)
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if err := verify.NetworkVsCircuit(nw, packed.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if packed.LUTs < exact.LUTs {
				t.Fatalf("trial %d K=%d: bin packing (%d) beat the exhaustive optimum (%d)",
					trial, k, packed.LUTs, exact.LUTs)
			}
			// crf should stay close to optimal on typical fanins.
			if packed.LUTs > exact.LUTs*3/2+1 {
				t.Fatalf("trial %d K=%d: bin packing %d vs optimal %d (too far)",
					trial, k, packed.LUTs, exact.LUTs)
			}
		}
	}
}

// TestBinPackWideNode: a fanin-40 gate maps optimally with no split.
func TestBinPackWideNode(t *testing.T) {
	nw := network.New("wide")
	var fins []network.Fanin
	for i := 0; i < 40; i++ {
		fins = append(fins, network.Fanin{Node: nw.AddInput(inName(i)), Invert: i%5 == 0})
	}
	g := nw.AddGate("g", network.OpOr, fins...)
	nw.MarkOutput("y", g, false)
	for k := 2; k <= 5; k++ {
		o := DefaultOptions(k)
		o.Strategy = StrategyBinPack
		res, err := Map(nw, o)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		want := (40 - 2 + k - 1) / (k - 1)
		if res.LUTs != want {
			t.Fatalf("K=%d: bin packing used %d LUTs on a single wide node, want %d", k, res.LUTs, want)
		}
		if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, 5); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
	}
}

// TestCostAwareDuplication: accepting only DP-verified improvements
// must never increase LUT count and must find the figure-1-style win
// where a shared node merges into both consumers.
func TestCostAwareDuplication(t *testing.T) {
	// figure1 at K=4: duplicating g2 into g3's and g4's trees lets both
	// absorb it: 3 LUTs -> 2.
	nw := figure1()
	plain, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	res, accepted, err := MapDuplicateCostAware(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if accepted == 0 || res.LUTs >= plain.LUTs {
		t.Fatalf("cost-aware duplication missed the win: accepted=%d, %d vs %d LUTs",
			accepted, res.LUTs, plain.LUTs)
	}
	if err := verify.NetworkVsCircuit(nw, res.Circuit, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCostAwareDuplicationNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		nw := randomDAG(rng, 5, 10+rng.Intn(12))
		for _, k := range []int{3, 5} {
			plain, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := MapDuplicateCostAware(nw, DefaultOptions(k))
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if res.LUTs > plain.LUTs {
				t.Fatalf("trial %d K=%d: cost-aware duplication grew %d -> %d",
					trial, k, plain.LUTs, res.LUTs)
			}
			if err := verify.NetworkVsCircuit(nw, res.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
		}
	}
}

// TestMapNaive: the floor baseline is correct and never beats Chortle.
func TestMapNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		nw := randomDAG(rng, 5, 10+rng.Intn(15))
		for _, k := range []int{2, 4, 6} {
			naive, err := MapNaive(nw, k)
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if err := verify.NetworkVsCircuit(nw, naive.Circuit, 32, int64(trial)); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			smart, err := Map(nw, DefaultOptions(k))
			if err != nil {
				t.Fatal(err)
			}
			if smart.LUTs > naive.LUTs {
				t.Fatalf("trial %d K=%d: Chortle (%d) worse than naive (%d)",
					trial, k, smart.LUTs, naive.LUTs)
			}
		}
	}
}

// setProcs sets GOMAXPROCS to n for the rest of the test. GOMAXPROCS
// is process-wide, so never call it from a t.Parallel test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// forEachProcs runs fn at GOMAXPROCS 1 (the solve pool's inline path)
// and 4 (a multi-worker pool).
func forEachProcs(t *testing.T, fn func(procs int)) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		fn(procs)
	}
}

// TestParallelMappingIdentical: the solve pool must produce a
// byte-identical circuit whatever its worker count.
func TestParallelMappingIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 15; trial++ {
		nw := randomDAG(rng, 6, 15+rng.Intn(20))
		for _, k := range []int{3, 5} {
			var want *Result
			forEachProcs(t, func(procs int) {
				res, err := Map(nw, DefaultOptions(k))
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res
					return
				}
				if res.LUTs != want.LUTs || res.Trees != want.Trees {
					t.Fatalf("trial %d K=%d: %d workers got %d/%d vs %d/%d",
						trial, k, procs, res.LUTs, res.Trees, want.LUTs, want.Trees)
				}
				if res.Circuit.String() != want.Circuit.String() {
					t.Fatalf("trial %d K=%d: %d-worker circuit differs structurally", trial, k, procs)
				}
			})
		}
	}
}
