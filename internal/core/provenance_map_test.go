package core

import (
	"math/rand"
	"testing"

	"chortle/internal/network"
	"chortle/internal/verify"
)

// preparedGates returns the names of the prepared network's non-input
// nodes — the set provenance Covers must partition exactly.
func preparedGates(t *testing.T, res *Result) map[string]bool {
	t.Helper()
	if res.Prepared == nil {
		t.Fatal("Result.Prepared not recorded with Provenance on")
	}
	gates := make(map[string]bool)
	for _, n := range res.Prepared.Nodes {
		if !n.IsInput() {
			gates[n.Name] = true
		}
	}
	return gates
}

func checkProvenance(t *testing.T, res *Result) {
	t.Helper()
	if err := res.Circuit.CheckProvenance(preparedGates(t, res)); err != nil {
		t.Fatal(err)
	}
}

// TestProvenanceRandomDAGs maps random reconvergent DAGs with
// provenance recording on, in every mode the mapper has and at every
// worker count, and checks the coverage invariant each time: every
// prepared gate is covered by exactly one LUT, every LUT carries a
// complete record.
func TestProvenanceRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	modes := []struct {
		name string
		tune func(*Options)
	}{
		{"exhaustive", func(o *Options) {}},
		{"binpack", func(o *Options) { o.Strategy = StrategyBinPack }},
		{"depth", func(o *Options) { o.OptimizeDepth = true }},
		{"repack", func(o *Options) { o.RepackLUTs = true }},
		{"degraded", func(o *Options) { o.Budget.WorkUnits = 1 }},
	}
	for trial := 0; trial < 6; trial++ {
		nw := randomDAG(rng, 5+rng.Intn(4), 10+rng.Intn(20))
		forEachProcs(t, func(procs int) {
			for k := 3; k <= 5; k++ {
				for _, mode := range modes {
					opts := DefaultOptions(k)
					opts.Provenance = true
					mode.tune(&opts)
					res, err := Map(nw, opts)
					if err != nil {
						t.Fatalf("trial %d K=%d %s, %d workers: %v", trial, k, mode.name, procs, err)
					}
					checkProvenance(t, res)
					if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, int64(trial)); err != nil {
						t.Fatalf("trial %d K=%d %s, %d workers: %v", trial, k, mode.name, procs, err)
					}
				}
			}
		})
	}
}

// identicalTrees builds a network of count structurally identical
// multi-level trees, each its own output — the shape memo's best case,
// forcing the rebind path from the second instance on.
func identicalTrees(count int) *network.Network {
	nw := network.New("iso")
	for i := 0; i < count; i++ {
		p := string(rune('a'+i)) + "_"
		var ins []*network.Node
		for j := 0; j < 6; j++ {
			ins = append(ins, nw.AddInput(p+inName(j)))
		}
		l1 := nw.AddGate(p+"l1", network.OpAnd,
			network.Fanin{Node: ins[0]}, network.Fanin{Node: ins[1], Invert: true})
		l2 := nw.AddGate(p+"l2", network.OpOr,
			network.Fanin{Node: ins[2]}, network.Fanin{Node: ins[3]})
		l3 := nw.AddGate(p+"l3", network.OpAnd,
			network.Fanin{Node: l1}, network.Fanin{Node: l2},
			network.Fanin{Node: ins[4]})
		root := nw.AddGate(p+"root", network.OpOr,
			network.Fanin{Node: l3}, network.Fanin{Node: ins[5], Invert: true})
		nw.MarkOutput(p+"y", root, false)
	}
	return nw
}

// TestProvenanceMemoOrigins drives the memo machinery through both of
// its branches — fresh solve and DP rebind — and checks that origins
// land accordingly while coverage stays exact, with the same records at
// every worker count.
func TestProvenanceMemoOrigins(t *testing.T) {
	nw := identicalTrees(5)
	opts := DefaultOptions(4)
	opts.Provenance = true
	var want *Result
	forEachProcs(t, func(procs int) {
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkProvenance(t, res)
		counts := res.Circuit.OriginCounts()
		if counts["fresh"] == 0 || counts["memo"] == 0 {
			t.Fatalf("%d workers: want fresh and memo origins across 5 identical trees, got %v", procs, counts)
		}
		if want == nil {
			want = res
			return
		}
		for _, l := range want.Circuit.LUTs {
			p, q := want.Circuit.ProvenanceOf(l.Name), res.Circuit.ProvenanceOf(l.Name)
			if q == nil {
				t.Fatalf("LUT %s missing from the %d-worker run", l.Name, procs)
			}
			if p.Shape != q.Shape || p.Tree != q.Tree || p.Origin != q.Origin {
				t.Fatalf("LUT %s: shape/tree/origin differ across worker counts: %q/%q/%v vs %q/%q/%v",
					l.Name, p.Shape, p.Tree, p.Origin, q.Shape, q.Tree, q.Origin)
			}
			if !p.Origin.Searched() {
				t.Fatalf("LUT %s: non-searched origin %v", l.Name, p.Origin)
			}
		}
	})
}

// TestProvenanceDuplication covers the cost-aware duplication path
// with provenance on.
func TestProvenanceDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nw := randomDAG(rng, 6, 18)
	opts := DefaultOptions(4)
	opts.Provenance = true
	res, _, err := MapDuplicateCostAwareCtx(t.Context(), nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkProvenance(t, res)
}

// TestProvenanceOffNoPrepared pins that the prepared network is only
// retained when provenance asks for it.
func TestProvenanceOffNoPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nw := randomDAG(rng, 5, 10)
	res, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Prepared != nil {
		t.Fatal("Result.Prepared retained with Provenance off")
	}
	if res.Circuit.HasProvenance() {
		t.Fatal("provenance records present with Provenance off")
	}
}
