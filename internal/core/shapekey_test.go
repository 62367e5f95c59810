package core

import (
	"math/rand"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/forest"
	"chortle/internal/network"
)

// sameTreeShape is the reference shape identity the keys must agree
// with: a walk of both trees requiring the same ops, the same fanin
// order and arity, the same edge polarities, and leaf edges in the same
// positions.
func sameTreeShape(fa *forest.Forest, a *network.Node, fb *forest.Forest, b *network.Node) bool {
	if a.Op != b.Op || len(a.Fanins) != len(b.Fanins) {
		return false
	}
	for i := range a.Fanins {
		ea, eb := a.Fanins[i], b.Fanins[i]
		if ea.Invert != eb.Invert {
			return false
		}
		la, lb := fa.IsLeafEdge(ea.Node), fb.IsLeafEdge(eb.Node)
		if la != lb {
			return false
		}
		if !la && !sameTreeShape(fa, ea.Node, fb, eb.Node) {
			return false
		}
	}
	return true
}

// shapeKey is appendShapeKey into a fresh string.
func shapeKey(f *forest.Forest, root *network.Node, prefix []byte) string {
	return string(appendShapeKey(nil, f, root, prefix))
}

// shapeRep is one tree together with the forest that decides its leaf
// edges.
type shapeRep struct {
	f    *forest.Forest
	root *network.Node
}

// paperForests prepares the twelve optimized paper circuits the way Map
// does at K=4 (clone, sweep, split wide nodes, decompose into trees).
func paperForests(tb testing.TB) []*forest.Forest {
	tb.Helper()
	opts := DefaultOptions(4)
	var fs []*forest.Forest
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
		fs = append(fs, f)
	}
	return fs
}

// checkKeysMatchStructure groups trees by shape key and requires each
// group to be one shape under sameTreeShape and no two groups to be the
// same shape: equal keys exactly when the reference says same shape.
// It returns the number of groups.
func checkKeysMatchStructure(t *testing.T, trees []shapeRep, prefix []byte) int {
	t.Helper()
	groups := make(map[string]shapeRep)
	var reps []shapeRep
	for _, tr := range trees {
		key := shapeKey(tr.f, tr.root, prefix)
		rep, ok := groups[key]
		if !ok {
			groups[key] = tr
			reps = append(reps, tr)
			continue
		}
		if !sameTreeShape(rep.f, rep.root, tr.f, tr.root) {
			t.Fatalf("trees %s and %s share a key but not a shape", rep.root.Name, tr.root.Name)
		}
	}
	for i, a := range reps {
		for _, b := range reps[i+1:] {
			if sameTreeShape(a.f, a.root, b.f, b.root) {
				t.Fatalf("trees %s and %s have one shape but two keys", a.root.Name, b.root.Name)
			}
		}
	}
	return len(reps)
}

// TestShapeKeyMatchesStructure checks the key against the reference
// walk over every tree of the paper circuits and of random forests.
func TestShapeKeyMatchesStructure(t *testing.T) {
	var trees []shapeRep
	addForest := func(f *forest.Forest) {
		for _, r := range f.Roots {
			trees = append(trees, shapeRep{f, r})
		}
	}
	for _, f := range paperForests(t) {
		addForest(f)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		f, err := forest.Decompose(randomDAG(rng, 6, 40))
		if err != nil {
			t.Fatal(err)
		}
		addForest(f)
	}
	for i := 0; i < 200; i++ {
		f, err := forest.Decompose(randomWideTree(rng))
		if err != nil {
			t.Fatal(err)
		}
		addForest(f)
	}
	shapes := checkKeysMatchStructure(t, trees, shapeKeyPrefix(DefaultOptions(4)))
	if shapes == len(trees) {
		t.Fatalf("%d trees, every one its own shape: no shared key was checked", len(trees))
	}
	t.Logf("%d trees, %d shapes", len(trees), shapes)
}

// FuzzShapeKey builds two trees from the fuzz input, the second from the
// first's bytes with one byte changed, so the pair is sometimes one shape
// and sometimes two, and requires their keys to agree with the
// reference walk. Each key must also match the skeleton of its tree's
// solved DP, which is the check a snapshot restore makes.
func FuzzShapeKey(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 2, 0, 9, 0, 0, 0, 0, 1, 0, 0, 1})
	f.Add([]byte{5, 2, 1, 2, 0, 3, 1, 3, 0, 0, 5, 7, 1, 0, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pos, flip, a := int(data[0]), data[1], data[2:]
		b := append([]byte(nil), a...)
		if len(b) > 0 {
			b[pos%len(b)] ^= flip
		}
		opts := DefaultOptions(4)
		prefix := shapeKeyPrefix(opts)
		var trees []shapeRep
		for _, src := range []byteSource{a, b} {
			fr, err := forest.Decompose(randomWideTree(&src))
			if err != nil {
				t.Fatal(err)
			}
			root := fr.Roots[0]
			frozen, _ := freezeDP(buildDP(fr, root, opts))
			if !dpMatchesKey(shapeKey(fr, root, prefix), frozen) {
				t.Fatal("a tree's key disagrees with its own DP skeleton")
			}
			trees = append(trees, shapeRep{fr, root})
		}
		checkKeysMatchStructure(t, trees, prefix)
	})
}
