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

func TestTreeHashShapeOnly(t *testing.T) {
	seed := shapeSeed(DefaultOptions(4))

	// Same shape, different leaf identities: the second network renames
	// every input, which must not affect the hash.
	fa, ra := chainTree(t, "a", 3, false, network.OpAnd)
	fb, rb := chainTree(t, "b", 3, false, network.OpAnd)
	if treeHash(fa, ra, seed) != treeHash(fb, rb, seed) {
		t.Fatalf("identical shapes hash differently")
	}
	if !sameTreeShape(fa, ra, fb, rb) {
		t.Fatalf("sameTreeShape rejects identical shapes")
	}

	// Structural differences that must change the hash.
	variants := []struct {
		name string
		f    *forest.Forest
		r    *network.Node
	}{}
	fInv, rInv := chainTree(t, "inv", 3, true, network.OpAnd)
	variants = append(variants, struct {
		name string
		f    *forest.Forest
		r    *network.Node
	}{"inverted edges", fInv, rInv})
	fOp, rOp := chainTree(t, "op", 3, false, network.OpOr)
	variants = append(variants, struct {
		name string
		f    *forest.Forest
		r    *network.Node
	}{"different op", fOp, rOp})
	fDeep, rDeep := chainTree(t, "deep", 4, false, network.OpAnd)
	variants = append(variants, struct {
		name string
		f    *forest.Forest
		r    *network.Node
	}{"extra level", fDeep, rDeep})

	base := treeHash(fa, ra, seed)
	for _, v := range variants {
		if treeHash(v.f, v.r, seed) == base {
			t.Errorf("%s: hash collides with base shape", v.name)
		}
		if sameTreeShape(fa, ra, v.f, v.r) {
			t.Errorf("%s: sameTreeShape accepts different shape", v.name)
		}
	}

	// Different K must produce a different seed (one memo may never serve
	// two K values).
	if shapeSeed(DefaultOptions(4)) == shapeSeed(DefaultOptions(5)) {
		t.Errorf("shape seeds for K=4 and K=5 coincide")
	}
}

// TestShapeMemoCollisionSafety force-inserts a cache entry for one shape
// under another shape's hash — simulating a 64-bit collision — and
// checks that lookup refuses to serve it: a collision must degrade to a
// miss, never to reuse of the wrong DP.
func TestShapeMemoCollisionSafety(t *testing.T) {
	fa, ra := chainTree(t, "a", 3, false, network.OpAnd)
	fb, rb := chainTree(t, "b", 4, false, network.OpOr) // different shape

	seed := shapeSeed(DefaultOptions(4))
	sa := treeShapeInfo(fa, ra, seed)
	sb := treeShapeInfo(fb, rb, seed)

	memo := newShapeMemo()
	// Wrong shape under ra's hash, carrying its own true counts: the
	// size prefilter alone rejects it (fb is one level deeper).
	memo.insert(shapeInfo{hash: sa.hash, nodes: sb.nodes, leaves: sb.leaves},
		&shapeEntry{f: fb, rep: rb})
	if e := memo.lookup(fa, ra, sa); e != nil {
		t.Fatalf("lookup served a colliding entry of different shape")
	}

	// A same-size collision (equal counts, different op) must fall
	// through the prefilter and still be rejected by the structure walk.
	fc, rc := chainTree(t, "c", 3, false, network.OpOr)
	sc := treeShapeInfo(fc, rc, seed)
	if sc.nodes != sa.nodes || sc.leaves != sa.leaves {
		t.Fatalf("test premise broken: same-depth chains should have equal counts")
	}
	memo.insert(shapeInfo{hash: sa.hash, nodes: sc.nodes, leaves: sc.leaves},
		&shapeEntry{f: fc, rep: rc})
	if e := memo.lookup(fa, ra, sa); e != nil {
		t.Fatalf("lookup served a same-size colliding entry of different shape")
	}

	// The genuine entry is still found behind the impostors in the bucket.
	real := &shapeEntry{f: fa, rep: ra}
	memo.insert(sa, real)
	if e := memo.lookup(fa, ra, sa); e != real {
		t.Fatalf("lookup failed to find the matching entry in a collided bucket")
	}

	// Same guard on the cost memo.
	cm := newCostMemo()
	cm.insert(sa.hash, fb, rb, 7)
	if _, ok := cm.lookup(fa, ra, sa.hash); ok {
		t.Fatalf("cost memo served a colliding entry of different shape")
	}
	cm.insert(sa.hash, fa, ra, 3)
	if c, ok := cm.lookup(fa, ra, sa.hash); !ok || c != 3 {
		t.Fatalf("cost memo missed the matching entry, got (%d, %v)", c, ok)
	}
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
