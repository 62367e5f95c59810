package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// dpArena is a bump allocator for the tree DP's working memory. The
// exhaustive DP wants one 2^fanin x (K+1) table pair per tree node; with
// per-row make() calls a single Map of a large netlist performs
// O(sum 2^fanin) allocations. The arena hands out sub-slices of a few
// large slabs instead, so a whole tree costs O(1) allocations once the
// slabs have grown to size, and slabs are recycled across Map calls
// through a sync.Pool.
//
// An arena is single-goroutine: the parallel pipeline gives each worker
// its own. Slabs handed out are never zeroed — every consumer writes all
// cells it will read (compute() fills every table cell, rebindDP and
// buildDPIn assign whole structs).
type dpArena struct {
	i32   []int32
	i8    []int8
	nodes []nodeDP
	frs   []faninRef

	oI32, oI8, oNodes, oFrs int

	// scratch holds one node's class tables while compute runs; every
	// compute reuses it from the start.
	scratch []int32
}

var arenaPool = sync.Pool{New: func() any { return new(dpArena) }}

// arenasLive counts arenas checked out of the pool and not yet
// released. Fault-injection tests assert it returns to zero after a
// cancelled or panicking Map, proving the cleanup path ran.
var arenasLive atomic.Int64

// liveArenas reports the number of outstanding (acquired, unreleased)
// arenas — a test-only leak probe.
func liveArenas() int64 { return arenasLive.Load() }

// acquireArena takes a recycled arena from the pool (offsets reset;
// slab capacity retained from earlier use).
func acquireArena() *dpArena {
	a := arenaPool.Get().(*dpArena)
	a.reset()
	arenasLive.Add(1)
	return a
}

// release returns the arena and its slabs to the pool. The caller must
// not retain references into the arena after releasing it.
func (a *dpArena) release() {
	arenasLive.Add(-1)
	arenaPool.Put(a)
}

// reset rewinds the arena so its slabs can be reused. Outstanding
// sub-slices keep referencing the old backing arrays and stay valid;
// reset is only safe once they are no longer needed (or the arena was
// freshly acquired).
func (a *dpArena) reset() {
	a.oI32, a.oI8, a.oNodes, a.oFrs = 0, 0, 0, 0
}

// grown returns a slab length that amortizes regrowth: at least need,
// at least double the old backing, with a floor that skips the tiny-slab
// churn of the first trees.
func grown(old, need, floor int) int {
	n := 2 * old
	if n < need {
		n = need
	}
	if n < floor {
		n = floor
	}
	return n
}

// slabBytes reports the arena's current backing-slab footprint — what
// the observability layer's arena-stats event carries. Capacity, not
// use: recycled slabs keep their high-water size.
func (a *dpArena) slabBytes() int64 {
	return int64(len(a.i32)+len(a.scratch))*int64(unsafe.Sizeof(int32(0))) +
		int64(len(a.i8)) +
		int64(len(a.nodes))*int64(unsafe.Sizeof(nodeDP{})) +
		int64(len(a.frs))*int64(unsafe.Sizeof(faninRef{}))
}

func (a *dpArena) allocI32(n int) []int32 {
	if a.oI32+n > len(a.i32) {
		a.i32 = make([]int32, grown(len(a.i32), n, 4096))
		a.oI32 = 0
	}
	s := a.i32[a.oI32 : a.oI32+n : a.oI32+n]
	a.oI32 += n
	return s
}

// scratchI32 returns the scratch slab's first n cells, which stay valid
// until the next call.
func (a *dpArena) scratchI32(n int) []int32 {
	if n > len(a.scratch) {
		a.scratch = make([]int32, grown(len(a.scratch), n, 1024))
	}
	return a.scratch[:n]
}

func (a *dpArena) allocI8(n int) []int8 {
	if a.oI8+n > len(a.i8) {
		a.i8 = make([]int8, grown(len(a.i8), n, 4096))
		a.oI8 = 0
	}
	s := a.i8[a.oI8 : a.oI8+n : a.oI8+n]
	a.oI8 += n
	return s
}

func (a *dpArena) allocNode() *nodeDP {
	if a.oNodes >= len(a.nodes) {
		a.nodes = make([]nodeDP, grown(len(a.nodes), 1, 256))
		a.oNodes = 0
	}
	dp := &a.nodes[a.oNodes]
	a.oNodes++
	return dp
}

func (a *dpArena) allocFanins(n int) []faninRef {
	if a.oFrs+n > len(a.frs) {
		a.frs = make([]faninRef, grown(len(a.frs), n, 1024))
		a.oFrs = 0
	}
	s := a.frs[a.oFrs : a.oFrs+n : a.oFrs+n]
	a.oFrs += n
	return s
}
