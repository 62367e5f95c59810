package network

import (
	"math/rand"
	"testing"
)

// figure1 builds a small network in the spirit of the paper's Figure 1:
// five inputs a..e feeding a two-level AND/OR structure with an inverted
// edge, two outputs y and z.
func figure1() *Network {
	nw := New("figure1")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	d := nw.AddInput("d")
	e := nw.AddInput("e")
	g1 := nw.AddGate("g1", OpAnd, Fanin{Node: a}, Fanin{Node: b})
	g2 := nw.AddGate("g2", OpOr, Fanin{Node: c, Invert: true}, Fanin{Node: d})
	g3 := nw.AddGate("g3", OpOr, Fanin{Node: g1}, Fanin{Node: g2})
	g4 := nw.AddGate("g4", OpAnd, Fanin{Node: g2}, Fanin{Node: e})
	nw.MarkOutput("y", g3, false)
	nw.MarkOutput("z", g4, true)
	return nw
}

func TestValidateAndStats(t *testing.T) {
	nw := figure1()
	if err := nw.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := nw.Stats()
	if s.Inputs != 5 || s.Outputs != 2 || s.Gates != 4 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Depth != 2 {
		t.Fatalf("Depth = %d, want 2", s.Depth)
	}
	if s.MaxFanin != 2 || s.Edges != 8 {
		t.Fatalf("MaxFanin/Edges = %d/%d, want 2/8", s.MaxFanin, s.Edges)
	}
}

func TestTopoSortOrder(t *testing.T) {
	nw := figure1()
	order, err := nw.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[*Node]int)
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range nw.Nodes {
		for _, f := range n.Fanins {
			if pos[f.Node] >= pos[n] {
				t.Fatalf("fanin %q not before %q", f.Node.Name, n.Name)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	nw := New("cyclic")
	a := nw.AddInput("a")
	g1 := nw.AddGate("g1", OpAnd, Fanin{Node: a})
	g2 := nw.AddGate("g2", OpOr, Fanin{Node: g1})
	g1.Fanins = append(g1.Fanins, Fanin{Node: g2}) // close the loop
	nw.MarkOutput("y", g2, false)
	if _, err := nw.TopoSort(); err == nil {
		t.Fatal("TopoSort accepted a cyclic network")
	}
	if err := nw.Validate(); err == nil {
		t.Fatal("Validate accepted a cyclic network")
	}
}

func TestValidateRejectsBadNetworks(t *testing.T) {
	empty := New("empty")
	empty.AddInput("a")
	if err := empty.Validate(); err == nil {
		t.Fatal("Validate accepted a network with no outputs")
	}

	noFanin := New("nofanin")
	in := noFanin.AddInput("a")
	g := noFanin.AddGate("g", OpAnd, Fanin{Node: in})
	g.Fanins = nil
	noFanin.MarkOutput("y", g, false)
	if err := noFanin.Validate(); err == nil {
		t.Fatal("Validate accepted a gate with no fanins")
	}
}

func TestSimulateFigure1(t *testing.T) {
	nw := figure1()
	// Exhaustive over the 32 input combinations, packed into one word.
	assign := map[string]uint64{}
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		var w uint64
		for m := uint(0); m < 32; m++ {
			if m>>uint(i)&1 == 1 {
				w |= 1 << m
			}
		}
		assign[name] = w
	}
	got, err := nw.Simulate(assign)
	if err != nil {
		t.Fatal(err)
	}
	for m := uint(0); m < 32; m++ {
		a, b := m&1 == 1, m>>1&1 == 1
		c, d, e := m>>2&1 == 1, m>>3&1 == 1, m>>4&1 == 1
		g2 := !c || d
		wantY := (a && b) || g2
		wantZ := !(g2 && e)
		if got["y"]>>m&1 == 1 != wantY {
			t.Fatalf("y wrong at minterm %05b", m)
		}
		if got["z"]>>m&1 == 1 != wantZ {
			t.Fatalf("z wrong at minterm %05b", m)
		}
	}
}

func TestSweepBypassesBuffersAndInverters(t *testing.T) {
	nw := New("buf")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	inv := nw.AddGate("inv", OpAnd, Fanin{Node: a, Invert: true}) // inverter
	buf := nw.AddGate("buf", OpOr, Fanin{Node: inv})              // buffer of inverter
	g := nw.AddGate("g", OpAnd, Fanin{Node: buf}, Fanin{Node: b})
	nw.MarkOutput("y", g, false)

	before, err := nw.Simulate(map[string]uint64{"a": 0b0101, "b": 0b0011})
	if err != nil {
		t.Fatal(err)
	}
	removed := nw.Sweep()
	if removed != 2 {
		t.Fatalf("Sweep removed %d nodes, want 2 (buffer+inverter)", removed)
	}
	if len(g.Fanins) != 2 || g.Fanins[0].Node != a || !g.Fanins[0].Invert {
		t.Fatalf("inverter not folded into consumer: %+v", g.Fanins)
	}
	after, err := nw.Simulate(map[string]uint64{"a": 0b0101, "b": 0b0011})
	if err != nil {
		t.Fatal(err)
	}
	if before["y"] != after["y"] {
		t.Fatal("Sweep changed functionality")
	}
}

func TestSweepDeduplicatesFanins(t *testing.T) {
	nw := New("dup")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	g := nw.AddGate("g", OpAnd, Fanin{Node: a}, Fanin{Node: a}, Fanin{Node: b})
	nw.MarkOutput("y", g, false)
	nw.Sweep()
	if len(g.Fanins) != 2 {
		t.Fatalf("duplicate fanin not merged: %d fanins", len(g.Fanins))
	}
}

func TestSweepRemovesDeadLogic(t *testing.T) {
	nw := figure1()
	// Dead branch: two gates never reaching an output.
	d1 := nw.AddGate("dead1", OpAnd, Fanin{Node: nw.Find("a")}, Fanin{Node: nw.Find("b")})
	nw.AddGate("dead2", OpOr, Fanin{Node: d1}, Fanin{Node: nw.Find("c")})
	if removed := nw.Sweep(); removed != 2 {
		t.Fatalf("Sweep removed %d, want 2", removed)
	}
	if nw.Find("dead1") != nil || nw.Find("dead2") != nil {
		t.Fatal("dead nodes still findable after Sweep")
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepOutputOfInverterChain(t *testing.T) {
	nw := New("chain")
	a := nw.AddInput("a")
	i1 := nw.AddGate("i1", OpAnd, Fanin{Node: a, Invert: true})
	i2 := nw.AddGate("i2", OpAnd, Fanin{Node: i1, Invert: true})
	nw.MarkOutput("y", i2, true) // y = !(!!a) = !a
	nw.Sweep()
	if len(nw.Outputs) != 1 || nw.Outputs[0].Node != a || !nw.Outputs[0].Invert {
		t.Fatalf("output not resolved through chain: %+v", nw.Outputs[0])
	}
	got, err := nw.Simulate(map[string]uint64{"a": 0b10})
	if err != nil {
		t.Fatal(err)
	}
	if got["y"]&0b11 != 0b01 {
		t.Fatalf("y = %b, want !a", got["y"]&0b11)
	}
}

func TestClone(t *testing.T) {
	nw := figure1()
	cp := nw.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	cp.Find("g1").Fanins[0].Invert = true
	if nw.Find("g1").Fanins[0].Invert {
		t.Fatal("clone shares fanin storage with original")
	}
	assign := map[string]uint64{"a": 3, "b": 5, "c": 9, "d": 17, "e": 33}
	got1, _ := nw.Simulate(assign)
	nw2 := figure1()
	got2, _ := nw2.Simulate(assign)
	if got1["y"] != got2["y"] || got1["z"] != got2["z"] {
		t.Fatal("network construction is not deterministic")
	}
}

func TestFanoutCounts(t *testing.T) {
	nw := figure1()
	nw.Reindex()
	counts := nw.FanoutCounts()
	g2 := nw.Find("g2")
	if counts[g2.ID] != 2 {
		t.Fatalf("g2 fanout = %d, want 2", counts[g2.ID])
	}
	g3 := nw.Find("g3")
	if counts[g3.ID] != 1 {
		t.Fatalf("g3 fanout = %d, want 1 (output)", counts[g3.ID])
	}
}

func TestOpString(t *testing.T) {
	if OpAnd.String() != "and" || OpOr.String() != "or" || OpInput.String() != "input" {
		t.Fatal("Op.String values changed")
	}
	if OpAnd.Dual() != OpOr || OpOr.Dual() != OpAnd || OpInput.Dual() != OpInput {
		t.Fatal("Op.Dual wrong")
	}
}

func TestRandomNetworkSimulationStability(t *testing.T) {
	// Build random DAGs and check Sweep never changes simulated outputs.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nw := New("rand")
		var pool []*Node
		nIn := 3 + rng.Intn(5)
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for i := 0; i < nIn; i++ {
			pool = append(pool, nw.AddInput(names[i]))
		}
		nGates := 5 + rng.Intn(15)
		for i := 0; i < nGates; i++ {
			op := OpAnd
			if rng.Intn(2) == 1 {
				op = OpOr
			}
			k := 1 + rng.Intn(3)
			var fins []Fanin
			for j := 0; j < k; j++ {
				fins = append(fins, Fanin{Node: pool[rng.Intn(len(pool))], Invert: rng.Intn(2) == 1})
			}
			pool = append(pool, nw.AddGate(names[nIn-1]+"_g"+string(rune('A'+i)), op, fins...))
		}
		nw.MarkOutput("y", pool[len(pool)-1], rng.Intn(2) == 1)
		nw.MarkOutput("z", pool[len(pool)-2], false)

		assign := map[string]uint64{}
		for i := 0; i < nIn; i++ {
			assign[names[i]] = rng.Uint64()
		}
		before, err := nw.Simulate(assign)
		if err != nil {
			t.Fatal(err)
		}
		nw.Sweep()
		if err := nw.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		after, err := nw.Simulate(assign)
		if err != nil {
			t.Fatal(err)
		}
		if before["y"] != after["y"] || before["z"] != after["z"] {
			t.Fatalf("trial %d: Sweep changed functionality", trial)
		}
	}
}

func TestLatchSupport(t *testing.T) {
	nw := New("seq")
	q := nw.AddInput("q")
	en := nw.AddInput("en")
	d := nw.AddGate("d", OpAnd, Fanin{Node: q, Invert: true}, Fanin{Node: en})
	nw.AddLatch("q", d, false, '0')
	nw.MarkOutput("y", d, true)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := nw.Simulate(map[string]uint64{"q": 0b0011, "en": 0b0101})
	if err != nil {
		t.Fatal(err)
	}
	// d = !q & en.
	if got[LatchKey("q")]&0xF != 0b0100 {
		t.Fatalf("latch D = %04b", got[LatchKey("q")]&0xF)
	}
	if got["y"]&0xF != 0b1011 {
		t.Fatalf("y = %04b", got["y"]&0xF)
	}
	// Clone preserves latches with remapped nodes.
	cp := nw.Clone()
	if len(cp.Latches) != 1 || cp.Latches[0].D == d {
		t.Fatal("Clone latch remap wrong")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fanout counts include the latch data reference.
	nw.Reindex()
	if nw.FanoutCounts()[d.ID] != 2 { // output + latch
		t.Fatalf("latch D fanout = %d, want 2", nw.FanoutCounts()[d.ID])
	}
	// Sweep keeps latch-only logic alive.
	nw.Outputs = nil
	nw.Sweep()
	if nw.Find("d") == nil {
		t.Fatal("Sweep removed latch-driving logic")
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateLatchErrors(t *testing.T) {
	nw := New("bad")
	a := nw.AddInput("a")
	g := nw.AddGate("g", OpAnd, Fanin{Node: a}, Fanin{Node: a, Invert: true})
	nw.MarkOutput("y", g, false)
	nw.AddLatch("notdeclared", g, false, '0')
	if err := nw.Validate(); err == nil {
		t.Fatal("latch with undeclared Q accepted")
	}
	nw2 := New("dup")
	q := nw2.AddInput("q")
	b := nw2.AddInput("b")
	g2 := nw2.AddGate("g", OpOr, Fanin{Node: q}, Fanin{Node: b})
	nw2.AddLatch("q", g2, false, '0')
	nw2.AddLatch("q", g2, true, '1')
	if err := nw2.Validate(); err == nil {
		t.Fatal("duplicate latch accepted")
	}
}

func TestSortedOutputs(t *testing.T) {
	nw := figure1()
	outs := nw.SortedOutputs()
	if len(outs) != 2 || outs[0].Name != "y" || outs[1].Name != "z" {
		t.Fatalf("SortedOutputs = %v", outs)
	}
}

func TestValidateDuplicateOutputName(t *testing.T) {
	nw := figure1()
	nw.MarkOutput("y", nw.Find("g4"), false)
	if err := nw.Validate(); err == nil {
		t.Fatal("duplicate output name accepted")
	}
}

// TestSweepAndCloneOutsideNodes covers nodes a hand-built network can
// reach without holding them in Nodes, and IDs left stale by an edit.
// Sweep bypasses, dedups and marks through such a node (keeping what it
// reaches) without adding it; Clone has no copy of it and leaves nil.
func TestSweepAndCloneOutsideNodes(t *testing.T) {
	nw := New("outside")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	g := nw.AddGate("g", OpAnd, Fanin{Node: a}, Fanin{Node: b})
	// f sits outside Nodes with the ID of g; buf is an outside buffer.
	f := &Node{Name: "f", Op: OpOr, Fanins: []Fanin{{Node: g}, {Node: a, Invert: true}}, ID: g.ID}
	buf := &Node{Name: "buf", Op: OpAnd, Fanins: []Fanin{{Node: b, Invert: true}}, ID: 0}
	h := nw.AddGate("h", OpAnd, Fanin{Node: f}, Fanin{Node: f}, Fanin{Node: buf}, Fanin{Node: b, Invert: true})
	nw.MarkOutput("y", h, false)

	if removed := nw.Sweep(); removed != 0 {
		t.Fatalf("Sweep removed %d nodes, want 0 (g is live through f)", removed)
	}
	if len(nw.Nodes) != 4 || nw.Find("g") != g {
		t.Fatalf("nodes after Sweep: %d, g found: %v", len(nw.Nodes), nw.Find("g") != nil)
	}
	want := []Fanin{{Node: f}, {Node: b, Invert: true}}
	if len(h.Fanins) != len(want) || h.Fanins[0] != want[0] || h.Fanins[1] != want[1] {
		t.Fatalf("h fanins after Sweep = %+v, want %+v", h.Fanins, want)
	}

	// Stale IDs: swap two nodes without a Reindex.
	nw.Nodes[0], nw.Nodes[2] = nw.Nodes[2], nw.Nodes[0]
	cp := nw.Clone()
	ch := cp.Find("h")
	if ch == nil || ch == h || ch.Fanins[0].Node != nil || ch.Fanins[1].Node != cp.Find("b") {
		t.Fatalf("clone of h has fanins %+v; want nil for f, then the copy of b", ch.Fanins)
	}
	cg := cp.Find("g")
	if cg.Fanins[0].Node != cp.Find("a") || cg.Fanins[1].Node != cp.Find("b") {
		t.Fatal("clone of g does not read the copies of a and b")
	}
	if len(cp.Inputs) != 2 || cp.Inputs[0] != cp.Find("b") || cp.Inputs[1] != cp.Find("a") {
		t.Fatalf("clone has %d inputs; want b, a in node order", len(cp.Inputs))
	}
}
