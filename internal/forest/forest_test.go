package forest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chortle/internal/network"
)

// figure3 builds a DAG in the spirit of the paper's Figure 3: a node n
// with out-degree two whose edges must be cut, yielding a forest.
func figure3() *network.Network {
	nw := network.New("figure3")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	d := nw.AddInput("d")
	n := nw.AddGate("n", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	g1 := nw.AddGate("g1", network.OpOr, network.Fanin{Node: n}, network.Fanin{Node: c})
	g2 := nw.AddGate("g2", network.OpAnd, network.Fanin{Node: n}, network.Fanin{Node: d})
	nw.MarkOutput("x", g1, false)
	nw.MarkOutput("y", g2, false)
	return nw
}

func TestDecomposeFigure3(t *testing.T) {
	nw := figure3()
	f, err := Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 3 {
		t.Fatalf("roots = %d, want 3 (n, g1, g2)", len(f.Roots))
	}
	n := nw.Find("n")
	if !f.IsRoot(n) {
		t.Fatal("multi-fanout node n must be a tree root")
	}
	if !f.IsLeafEdge(n) || !f.IsLeafEdge(nw.Find("a")) {
		t.Fatal("roots and inputs must be leaf edges")
	}
	if f.IsLeafEdge(nw.Find("g1")) != true {
		t.Fatal("output drivers are roots, hence leaf edges elsewhere")
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	// n's tree must come before its consumers in Roots.
	pos := map[string]int{}
	for i, r := range f.Roots {
		pos[r.Name] = i
	}
	if pos["n"] > pos["g1"] || pos["n"] > pos["g2"] {
		t.Fatalf("root order not topological: %v", pos)
	}
}

func TestTreeNodesAndLeaves(t *testing.T) {
	nw := network.New("chain")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	g1 := nw.AddGate("g1", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	g2 := nw.AddGate("g2", network.OpOr, network.Fanin{Node: g1}, network.Fanin{Node: c})
	nw.MarkOutput("y", g2, false)
	f, err := Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 || f.Roots[0] != g2 {
		t.Fatalf("expected single tree rooted at g2")
	}
	nodes := f.TreeNodes(g2)
	if len(nodes) != 2 || nodes[0] != g1 || nodes[1] != g2 {
		t.Fatalf("postorder wrong: %v", nodes)
	}
	leaves := f.TreeLeaves(g2)
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(leaves))
	}
}

func TestLeafEdgeMultiplicity(t *testing.T) {
	// A multi-fanout node feeding one tree through two different tree
	// nodes must appear once per edge in TreeLeaves, matching the
	// paper's per-edge duplication.
	nw := network.New("mult")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	x := nw.AddGate("x", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	g1 := nw.AddGate("g1", network.OpOr, network.Fanin{Node: x}, network.Fanin{Node: c})
	g2 := nw.AddGate("g2", network.OpAnd, network.Fanin{Node: g1}, network.Fanin{Node: x, Invert: true})
	nw.MarkOutput("y", g2, false)
	f, err := Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	leaves := f.TreeLeaves(g2)
	count := 0
	for _, l := range leaves {
		if l == x {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("x appears %d times as leaf, want 2", count)
	}
}

func TestEveryGateInExactlyOneTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nw := randomDAG(rng)
		f, err := Decompose(nw)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func randomDAG(rng *rand.Rand) *network.Network {
	nw := network.New("rand")
	var pool []*network.Node
	for i := 0; i < 4; i++ {
		pool = append(pool, nw.AddInput("in"+string(rune('a'+i))))
	}
	nGates := 5 + rng.Intn(20)
	for i := 0; i < nGates; i++ {
		op := network.OpAnd
		if rng.Intn(2) == 1 {
			op = network.OpOr
		}
		k := 2 + rng.Intn(3)
		seen := map[*network.Node]bool{}
		var fins []network.Fanin
		for len(fins) < k {
			n := pool[rng.Intn(len(pool))]
			if seen[n] {
				continue
			}
			seen[n] = true
			fins = append(fins, network.Fanin{Node: n, Invert: rng.Intn(2) == 1})
		}
		pool = append(pool, nw.AddGate("g"+string(rune('0'+i/10))+string(rune('0'+i%10)), op, fins...))
	}
	nw.MarkOutput("y", pool[len(pool)-1], false)
	nw.MarkOutput("z", pool[len(pool)-2], true)
	nw.Sweep()
	return nw
}

// refRoots is the root rule as a map: a gate roots a tree when its
// fanout is not one or it drives an output or a latch, found by scanning
// the outputs and latches for it.
func refRoots(nw *network.Network) map[*network.Node]bool {
	counts := nw.FanoutCounts()
	roots := map[*network.Node]bool{}
	for _, n := range nw.Nodes {
		if n.IsInput() {
			continue
		}
		drives := false
		for _, o := range nw.Outputs {
			drives = drives || o.Node == n
		}
		for _, l := range nw.Latches {
			drives = drives || l.D == n
		}
		if counts[n.ID] != 1 || drives {
			roots[n] = true
		}
	}
	return roots
}

// wideDAG is a random network with many outputs and latches: each latch
// output is a declared input, and outputs and latch data inputs land on
// single-fanout gates as often as on shared ones.
func wideDAG(rng *rand.Rand) *network.Network {
	nw := network.New("wide")
	var pool []*network.Node
	latches := 1 + rng.Intn(6)
	for i := 0; i < 4+latches; i++ {
		pool = append(pool, nw.AddInput(fmt.Sprintf("in%d", i)))
	}
	for i := 0; i < 20+rng.Intn(200); i++ {
		op := network.OpAnd
		if rng.Intn(2) == 1 {
			op = network.OpOr
		}
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		for b == a {
			b = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, nw.AddGate(fmt.Sprintf("g%d", i), op,
			network.Fanin{Node: a, Invert: rng.Intn(2) == 1}, network.Fanin{Node: b}))
	}
	for i := 0; i < 1+len(pool)/3; i++ {
		nw.MarkOutput(fmt.Sprintf("o%d", i), pool[rng.Intn(len(pool))], rng.Intn(2) == 1)
	}
	for i := 0; i < latches; i++ {
		nw.AddLatch(fmt.Sprintf("in%d", 4+i), pool[4+latches+rng.Intn(len(pool)-4-latches)], rng.Intn(2) == 1, '0')
	}
	nw.Sweep()
	return nw
}

// TestRootsMatchMapReference checks Roots, IsRoot and IsLeafEdge on
// random DAGs with many outputs and latches against refRoots, for every
// node of the network and for a node of another network that holds a
// root's ID.
func TestRootsMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stranger := network.New("other").AddInput("x")
	for trial := 0; trial < 200; trial++ {
		nw := wideDAG(rng)
		if err := nw.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		f, err := Decompose(nw)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := refRoots(nw)
		order, err := nw.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		var want []*network.Node
		for _, n := range order {
			if ref[n] {
				want = append(want, n)
			}
		}
		if !slices.Equal(f.Roots, want) {
			t.Fatalf("trial %d: %d roots, reference %d", trial, len(f.Roots), len(want))
		}
		stranger.ID = f.Roots[0].ID // a foreign node at a root's ID
		for _, n := range append(nw.Nodes, stranger) {
			if f.IsRoot(n) != ref[n] || f.IsLeafEdge(n) != (n.IsInput() || ref[n]) {
				t.Fatalf("trial %d: node %q: IsRoot %v IsLeafEdge %v, reference root %v",
					trial, n.Name, f.IsRoot(n), f.IsLeafEdge(n), ref[n])
			}
		}
		if err := f.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
