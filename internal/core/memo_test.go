package core

import (
	"strings"
	"testing"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/verify"
)

// chain builds a named network of the shape
// root = op(leaf, op(leaf, ... )) with the given depth and edge
// inversions, returning the decomposed forest and the root node.
func chainTree(t *testing.T, name string, depth int, invert bool, op network.Op) (*forest.Forest, *network.Node) {
	t.Helper()
	nw := network.New(name)
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	cur := nw.AddGate("g0", op, network.Fanin{Node: a}, network.Fanin{Node: b, Invert: invert})
	for i := 1; i < depth; i++ {
		in := nw.AddInput("x" + string(rune('0'+i)))
		cur = nw.AddGate("g"+string(rune('0'+i)), op,
			network.Fanin{Node: cur}, network.Fanin{Node: in, Invert: invert})
	}
	nw.MarkOutput("y", cur, false)
	f, err := forest.Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	return f, f.Roots[len(f.Roots)-1]
}

// TestMemoizedMapMatchesPlain maps a network built to contain many
// isomorphic trees with varying leaf coincidence — trees of one shape
// whose leaf edges sometimes share a signal, which the rebound DP must
// reconstruct with deduplicated LUT inputs — and checks that the
// memoized mapping costs exactly what solving every tree on its own does
// (TreeCosts), simulates like the network, and emits the same bytes at
// every worker count.
func TestMemoizedMapMatchesPlain(t *testing.T) {
	nw := network.New("iso")
	var ins []*network.Node
	for i := 0; i < 8; i++ {
		ins = append(ins, nw.AddInput("i"+string(rune('a'+i))))
	}
	coincident := 0
	for g := 0; g < 24; g++ {
		x := ins[g%8]
		y := ins[(g*3+1)%8]
		z := ins[(g*5+2)%8]
		// Two trees in three reuse a leaf signal: same shape, different
		// leaf pattern.
		switch g % 3 {
		case 0:
			z = y
		case 1:
			z = x
		}
		if x == y || y == z || x == z {
			coincident++
		}
		a := nw.AddGate("a"+string(rune('a'+g%26))+string(rune('0'+g/26)), network.OpAnd,
			network.Fanin{Node: x}, network.Fanin{Node: y, Invert: g%2 == 0})
		o := nw.AddGate("o"+string(rune('a'+g%26))+string(rune('0'+g/26)), network.OpOr,
			network.Fanin{Node: a}, network.Fanin{Node: z})
		nw.MarkOutput("y"+string(rune('a'+g%26))+string(rune('0'+g/26)), o, false)
	}
	if coincident == 0 {
		t.Fatal("no tree reuses a leaf signal; the coincident-leaf case is untested")
	}

	for k := 2; k <= 5; k++ {
		opts := DefaultOptions(k)
		costs, err := TreeCosts(nw, opts)
		if err != nil {
			t.Fatalf("K=%d tree costs: %v", k, err)
		}
		plain := 0
		for _, c := range costs {
			plain += c
		}
		var want string
		forEachProcs(t, func(procs int) {
			rm, err := Map(nw, opts)
			if err != nil {
				t.Fatalf("K=%d memoized: %v", k, err)
			}
			if rm.LUTs != plain {
				t.Errorf("K=%d: per-tree solves total %d LUTs, memoized %d", k, plain, rm.LUTs)
			}
			if err := verify.NetworkVsCircuit(nw, rm.Circuit, 16, int64(k)); err != nil {
				t.Fatalf("K=%d: %v", k, err)
			}
			var b strings.Builder
			if err := rm.Circuit.WriteBLIF(&b); err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = b.String()
			} else if b.String() != want {
				t.Errorf("K=%d: %d-worker BLIF differs", k, procs)
			}
		})
	}
}
