package slab

import (
	"strconv"
	"testing"
)

type item struct {
	name string
	n    int
}

// Elements handed out before a chunk filled keep their address and
// value while many more chunks are started after them.
func TestNewKeepsPointers(t *testing.T) {
	var s Slab[item]
	var got []*item
	for i := 0; i < 5000; i++ {
		p := s.New()
		if *p != (item{}) {
			t.Fatalf("element %d is not zero: %+v", i, *p)
		}
		p.n = i
		got = append(got, p)
	}
	seen := make(map[*item]bool, len(got))
	for i, p := range got {
		if p.n != i {
			t.Fatalf("element %d reads %d", i, p.n)
		}
		if seen[p] {
			t.Fatalf("element %d shares its address with an earlier one", i)
		}
		seen[p] = true
	}
}

// A copy is capped at its length, so appending to it reallocates and
// leaves the copy carved after it alone.
func TestCopyIsCapped(t *testing.T) {
	var s Slab[int]
	a := s.Copy([]int{1, 2, 3})
	b := s.Copy([]int{4, 5})
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("caps %d/%d, lens %d/%d", cap(a), cap(b), len(a), len(b))
	}
	a = append(a, 9)
	if b[0] != 4 || b[1] != 5 {
		t.Fatalf("appending to a wrote over b: %v", b)
	}
	if got := s.Copy(nil); got != nil {
		t.Fatalf("Copy(nil) = %v, want nil", got)
	}
	src := []int{7, 8}
	c := s.Copy(src)
	src[0] = 0
	if c[0] != 7 {
		t.Fatal("Copy shares its source")
	}
}

// Grow sizes the next chunk exactly; past it, chunks grow with the
// count handed out, up to maxChunk.
func TestGrowAndChunkSizes(t *testing.T) {
	var s Slab[int]
	s.Grow(100)
	s.New()
	if cap(s.chunk) != 100 {
		t.Fatalf("grown chunk holds %d, want 100", cap(s.chunk))
	}
	for i := 1; i < 100; i++ {
		s.New()
	}
	if len(s.chunk) != 100 {
		t.Fatalf("chunk started early: %d in the current one", len(s.chunk))
	}
	s.New()
	if cap(s.chunk) != 100 {
		t.Fatalf("next chunk holds %d, want 100 (the count handed out)", cap(s.chunk))
	}
	var big Slab[int]
	for i := 0; i < 10*maxChunk; i++ {
		big.New()
	}
	if cap(big.chunk) != maxChunk {
		t.Fatalf("chunk holds %d, want at most %d", cap(big.chunk), maxChunk)
	}
	if long := big.Copy(make([]int, 3*maxChunk)); len(long) != 3*maxChunk {
		t.Fatalf("a copy longer than maxChunk has length %d", len(long))
	}
}

// A slab costs one allocation per chunk, not one per element.
func TestAllocsPerChunk(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[item]
		s.Grow(1000)
		for i := 0; i < 1000; i++ {
			s.New()
		}
	})
	if allocs != 1 {
		t.Fatalf("1000 elements in a grown slab cost %.0f allocations, want 1", allocs)
	}
}

// Names handed out stay what they were while the builder grows past
// them many times over, and a copy keeps none of its source.
func TestNamesStayValid(t *testing.T) {
	var ns Names
	var got []string
	for i := 0; i < 5000; i++ {
		got = append(got, ns.Numbered("g", "$l", i))
	}
	kept := ns.Copy(string([]byte("input")))
	for i, s := range got {
		if want := "g$l" + strconv.Itoa(i); s != want {
			t.Fatalf("name %d reads %q, want %q", i, s, want)
		}
	}
	if kept != "input" {
		t.Fatalf("Copy gave %q", kept)
	}
	if n := testing.AllocsPerRun(10, func() {
		var ns Names
		for i := 0; i < 1000; i++ {
			ns.Numbered("node", "$", i)
		}
	}); n > 20 {
		t.Fatalf("1000 names cost %.0f allocations, want a few per doubling", n)
	}
}

// A byte copy keeps none of its source: rewriting the source after the
// copy changes nothing the copy reads.
func TestCopyBytesOwnsItsBytes(t *testing.T) {
	var ns Names
	src := []byte("shape-key")
	got := ns.CopyBytes(src)
	copy(src, "XXXXXXXXX")
	if got != "shape-key" {
		t.Fatalf("CopyBytes gave %q after its source changed", got)
	}
	if empty := ns.CopyBytes(nil); empty != "" {
		t.Fatalf("CopyBytes(nil) = %q", empty)
	}
}
