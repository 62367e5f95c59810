package core

import (
	"testing"

	"chortle/internal/lut"
	"chortle/internal/network"
)

// TestProvenanceHooksOffZeroAlloc pins the provenance-off path: with
// Options.Provenance unset every hook on the reconstruction walk — the
// nil-frame methods, the frame constructors' gates, the per-tree
// context setter and the record finalizer — must allocate nothing.
// This is the same discipline the nil-observer tracer is held to.
func TestProvenanceHooksOffZeroAlloc(t *testing.T) {
	m := &mapper{opts: Options{K: 4}}
	dp := &nodeDP{node: &network.Node{Name: "n", Op: network.OpAnd}}
	var pf *provFrame
	allocs := testing.AllocsPerRun(1000, func() {
		pf.cover("gate")
		pf.token("pin")
		pf.open("merge")
		pf.close()
		if m.provFor(dp) != nil || m.provGroupFor(dp) != nil {
			t.Fatal("frames built with provenance off")
		}
		m.setProvTree("tree", lut.OriginFresh, 42)
		m.recordProv(nil, "lut", nil, "and", 2)
	})
	if allocs != 0 {
		t.Fatalf("provenance-off hooks allocated %v allocs/op, want 0", allocs)
	}
}

// TestProvFrameShape checks the shape token grammar the frames build:
// comma separation at the top level, none right after an opening
// parenthesis, and nesting via open/close.
func TestProvFrameShape(t *testing.T) {
	pf := &provFrame{}
	pf.token("pin")
	pf.open("merge")
	pf.token("pin")
	pf.token("grp3")
	pf.close()
	pf.token("pin")
	if got, want := pf.shape.String(), "pin,merge(pin,grp3),pin"; got != want {
		t.Fatalf("shape = %q, want %q", got, want)
	}
}
