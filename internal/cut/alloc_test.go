package cut

import (
	"context"
	"testing"
)

// TestSteadyStateZeroAlloc pins the arena's point: once a mapper's
// arena, candidate buffers and per-round slices have grown, a second
// enumeration plus an area-recovery round allocates nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	nw := diamondLadder(40)
	nw.Sweep()
	binarize(nw)
	order, err := nw.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	m := newMapper(DefaultOptions(5), nw, order)
	ctx := context.Background()
	run := func() {
		if err := m.enumerate(ctx); err != nil {
			t.Fatal(err)
		}
		m.selectCover()
		m.recomputeRefs()
		m.rerank()
		m.selectCover()
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("steady-state enumerate+rerank+selectCover: %v allocs/run, want 0", allocs)
	}
	if len(m.arena) == 0 || len(m.selected) == 0 {
		t.Errorf("re-enumeration did no work: %d cuts, %d selected", len(m.arena), len(m.selected))
	}
}
