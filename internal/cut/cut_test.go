package cut

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"chortle/internal/blif"
	"chortle/internal/cerrs"
	"chortle/internal/network"
	"chortle/internal/verify"
)

// randDAG generates a random reconvergent network: gates draw their
// fanins uniformly from everything built before them, so shared
// subexpressions and reconvergent paths appear constantly — exactly the
// structure the tree decomposition cannot see and the cut engine must
// handle. A few gates get fanin wider than two to exercise
// binarization, and an occasional latch exercises the sequential
// plumbing.
func randDAG(rng *rand.Rand) *network.Network {
	nw := network.New(fmt.Sprintf("rand%d", rng.Int63()))
	nIn := 3 + rng.Intn(8)
	var pool []*network.Node
	for i := 0; i < nIn; i++ {
		pool = append(pool, nw.AddInput(fmt.Sprintf("i%d", i)))
	}
	// Latch outputs are inputs to the combinational core.
	nLatch := rng.Intn(3)
	for i := 0; i < nLatch; i++ {
		pool = append(pool, nw.AddInput(fmt.Sprintf("q%d", i)))
	}
	nGates := 3 + rng.Intn(38)
	for i := 0; i < nGates; i++ {
		width := 2
		switch rng.Intn(8) {
		case 0:
			width = 3 + rng.Intn(3) // exercises binarize
		case 1:
			width = 1 // buffer/inverter
		}
		fanins := make([]network.Fanin, width)
		for j := range fanins {
			fanins[j] = network.Fanin{
				Node:   pool[rng.Intn(len(pool))],
				Invert: rng.Intn(3) == 0,
			}
		}
		op := network.OpAnd
		if rng.Intn(2) == 0 {
			op = network.OpOr
		}
		pool = append(pool, nw.AddGate(fmt.Sprintf("g%d", i), op, fanins...))
	}
	// Outputs: a few random picks plus the last gate so the network
	// never sweeps to nothing.
	nOut := 1 + rng.Intn(4)
	for i := 0; i < nOut; i++ {
		n := pool[nIn+nLatch+rng.Intn(nGates)]
		nw.MarkOutput(fmt.Sprintf("o%d", i), n, rng.Intn(4) == 0)
	}
	nw.MarkOutput("olast", pool[len(pool)-1], false)
	for i := 0; i < nLatch; i++ {
		nw.AddLatch(fmt.Sprintf("q%d", i), pool[nIn+nLatch+rng.Intn(nGates)], rng.Intn(4) == 0, byte(rng.Intn(2)))
	}
	return nw
}

// checkMapped asserts every cut-engine invariant on one mapped result:
// the circuit simulates identically to the unmapped network, every LUT
// is K-feasible, and — via the provenance records — the selected cones
// exactly partition the prepared subject graph's gates.
func checkMapped(t *testing.T, nw *network.Network, res *Result, k int, label string) {
	t.Helper()
	if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, 1); err != nil {
		t.Fatalf("%s: mapped circuit is not equivalent: %v", label, err)
	}
	for _, l := range res.Circuit.LUTs {
		if len(l.Inputs) > k {
			t.Fatalf("%s: LUT %q has %d inputs, K=%d", label, l.Name, len(l.Inputs), k)
		}
		if len(l.Inputs) == 0 {
			t.Fatalf("%s: LUT %q has no inputs", label, l.Name)
		}
	}
	if res.Prepared == nil {
		t.Fatalf("%s: Provenance set but Prepared is nil", label)
	}
	gates := make(map[string]bool)
	for _, n := range res.Prepared.Nodes {
		if !n.IsInput() {
			gates[n.Name] = true
		}
	}
	if err := res.Circuit.CheckProvenance(gates); err != nil {
		t.Fatalf("%s: cover is not an exact partition: %v", label, err)
	}
	if res.LUTs != len(res.Circuit.LUTs) {
		t.Fatalf("%s: Result.LUTs=%d but circuit has %d", label, res.LUTs, len(res.Circuit.LUTs))
	}
}

// TestRandomDAGProperties is the property suite: hundreds of seeded
// random reconvergent DAGs, each mapped at a random K, each checked for
// simulation equivalence, K-feasibility of every selected cut, and an
// exact cover partition. Run under -race in CI.
func TestRandomDAGProperties(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		nw := randDAG(rng)
		k := 2 + rng.Intn(5)
		opts := DefaultOptions(k)
		opts.Provenance = true
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("dag %d (K=%d): %v", i, k, err)
		}
		checkMapped(t, nw, res, k, fmt.Sprintf("dag %d (K=%d)", i, k))
	}
}

// diamondLadder builds d stacked reconvergent diamonds: each level
// forks the running signal into two polarized gates and rejoins them,
// so every level reconverges on the one below.
func diamondLadder(d int) *network.Network {
	nw := network.New(fmt.Sprintf("ladder%d", d))
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	cur := nw.AddGate("seed", network.OpAnd,
		network.Fanin{Node: a}, network.Fanin{Node: b})
	for i := 0; i < d; i++ {
		l := nw.AddGate(fmt.Sprintf("l%d", i), network.OpAnd,
			network.Fanin{Node: cur}, network.Fanin{Node: a, Invert: i%2 == 0})
		r := nw.AddGate(fmt.Sprintf("r%d", i), network.OpOr,
			network.Fanin{Node: cur, Invert: true}, network.Fanin{Node: b})
		cur = nw.AddGate(fmt.Sprintf("j%d", i), network.OpOr,
			network.Fanin{Node: l}, network.Fanin{Node: r, Invert: i%3 == 0})
	}
	nw.MarkOutput("out", cur, false)
	return nw
}

// highFanoutDiamond drives many parallel branches from one shared gate
// and reduces them back into a single output — the high-fanout
// reconvergence that stresses both reference estimation and the
// first-owner provenance partition.
func highFanoutDiamond(branches int) *network.Network {
	nw := network.New(fmt.Sprintf("fanout%d", branches))
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	hub := nw.AddGate("hub", network.OpOr,
		network.Fanin{Node: a}, network.Fanin{Node: b})
	fan := make([]network.Fanin, branches)
	for i := 0; i < branches; i++ {
		g := nw.AddGate(fmt.Sprintf("br%d", i), network.OpAnd,
			network.Fanin{Node: hub, Invert: i%2 == 0},
			network.Fanin{Node: c, Invert: i%3 == 0})
		fan[i] = network.Fanin{Node: g}
	}
	// One wide reducer, binarized by the mapper.
	red := nw.AddGate("red", network.OpOr, fan...)
	nw.MarkOutput("out", red, false)
	return nw
}

// TestAdversarialStructures maps the hand-built worst cases — deep
// reconvergence ladders and high-fanout diamonds — at every K.
func TestAdversarialStructures(t *testing.T) {
	nets := []*network.Network{
		diamondLadder(3), diamondLadder(12), diamondLadder(40),
		highFanoutDiamond(3), highFanoutDiamond(9), highFanoutDiamond(17),
	}
	for _, nw := range nets {
		for k := 2; k <= 6; k++ {
			opts := DefaultOptions(k)
			opts.Provenance = true
			res, err := Map(nw, opts)
			if err != nil {
				t.Fatalf("%s K=%d: %v", nw.Name, k, err)
			}
			checkMapped(t, nw, res, k, fmt.Sprintf("%s K=%d", nw.Name, k))
		}
	}
}

// TestBinarizationCounted pins that wide gates are expanded and
// reported: a fanin-17 reducer needs 15 extra two-input gates.
func TestBinarizationCounted(t *testing.T) {
	res, err := Map(highFanoutDiamond(17), DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BinarizedGates != 15 {
		t.Errorf("BinarizedGates = %d, want 15", res.BinarizedGates)
	}
	if res.Cuts == 0 || res.Nodes == 0 {
		t.Errorf("empty search stats: %+v", res)
	}
}

// TestDeterministicRepeat pins byte-level determinism: the same input
// maps to the identical circuit on every run, across option spellings
// that must not change the output.
func TestDeterministicRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		nw := randDAG(rng)
		k := 2 + rng.Intn(5)
		var ref string
		for rep := 0; rep < 4; rep++ {
			opts := DefaultOptions(k)
			opts.Provenance = rep%2 == 0 // provenance must be passive
			res, err := Map(nw, opts)
			if err != nil {
				t.Fatalf("dag %d rep %d: %v", i, rep, err)
			}
			var sb strings.Builder
			if err := res.Circuit.WriteBLIF(&sb); err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				ref = sb.String()
			} else if sb.String() != ref {
				t.Fatalf("dag %d (K=%d): run %d BLIF differs from run 0", i, k, rep)
			}
		}
	}
}

// TestTightPriorityList maps with the smallest list bound: quality
// drops but every invariant must hold.
func TestTightPriorityList(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		nw := randDAG(rng)
		opts := Options{K: 4, CutsPerNode: 1, AreaRounds: -1, Provenance: true}
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("dag %d: %v", i, err)
		}
		checkMapped(t, nw, res, 4, fmt.Sprintf("dag %d", i))
	}
}

func TestBadOptions(t *testing.T) {
	nw := diamondLadder(2)
	for _, k := range []int{0, 1, 7, -3} {
		if _, err := Map(nw, Options{K: k}); !errors.Is(err, cerrs.ErrBadK) {
			t.Errorf("K=%d: err=%v, want ErrBadK", k, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MapCtx(ctx, diamondLadder(30), DefaultOptions(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err=%v, want context.Canceled", err)
	}
}

// TestReconvergenceBeatsTrees pins the engine's reason to exist on a
// micro-example: the stacked diamonds collapse into far fewer LUTs
// than one per gate.
func TestReconvergenceBeatsTrees(t *testing.T) {
	nw := diamondLadder(12)
	res, err := Map(nw, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	// 12 levels x 3 gates + seed = 37 gates; the cut mapper must do much
	// better than one LUT per level triple.
	if res.LUTs > 12 {
		t.Errorf("ladder(12) at K=5: %d LUTs, want <= 12", res.LUTs)
	}
}

// TestDeepChainCone maps a 50,000-gate chain x_i = x_(i-1)·b read from
// BLIF under a 1 MiB goroutine stack. Every gate has the cut {a, b}, so
// the output's best cut has the whole chain as its cone: emission must
// walk it without recursing once per gate, or the stack overflows,
// which no recover catches.
func TestDeepChainCone(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const depth = 50000
	var sb strings.Builder
	sb.WriteString(".model chain\n.inputs a b\n.outputs y\n")
	prev := "a"
	for i := 1; i <= depth; i++ {
		out := "y"
		if i < depth {
			out = "x" + strconv.Itoa(i)
		}
		fmt.Fprintf(&sb, ".names %s b %s\n11 1\n", prev, out)
		prev = out
	}
	sb.WriteString(".end\n")
	nw, err := blif.ReadString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := res.Circuit.WriteBLIF(&out); err != nil {
		t.Fatal(err)
	}
	const want = ".model chain\n.inputs a b\n.outputs y\n.names a b y$50000\n11 1\n.names y$50000 y\n1 1\n.end\n"
	if res.LUTs != 1 || out.String() != want {
		t.Fatalf("chain maps to %d LUTs:\n%s\nwant 1 LUT:\n%s", res.LUTs, out.String(), want)
	}
}

// TestBinarizeNameClash maps a model whose input is named like the gate
// binarization would add: the reader names the three-input AND y$1, so
// its first two-input gate would be y$1$b0, which the input already
// holds. Binarization must pick a free name and the map must verify.
func TestBinarizeNameClash(t *testing.T) {
	const src = `.model clash
.inputs a b c y$1$b0
.outputs o1 o2
.names a b c y
111 1
.names y o1
1 1
.names y$1$b0 a o2
11 1
.end
`
	for k := 2; k <= 6; k++ {
		nw, err := blif.ReadString(src)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(k)
		opts.Provenance = true
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		checkMapped(t, nw, res, k, fmt.Sprintf("K=%d", k))
		if res.BinarizedGates != 1 || res.Prepared.Find("y$1$b0$1") == nil {
			t.Errorf("K=%d: %d gates added, want one named y$1$b0$1", k, res.BinarizedGates)
		}
	}
}
