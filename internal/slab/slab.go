// Package slab carves the many small objects, lists and names of a
// netlist out of a few large chunks, so that building a network or a LUT
// circuit costs one allocation per chunk instead of one per node, LUT,
// input list or name.
//
// A chunk is never grown in place: when the current one is full, the
// next element comes from a new chunk, and the old one lives on for as
// long as anything points into it. So a pointer or a list handed out
// stays valid and unmoved, and every list is capped at its length, so
// an append to one reallocates instead of writing over its neighbour.
package slab

import (
	"strconv"
	"strings"
)

// Chunks that no Grow sized start at minChunk elements and then double
// with the number handed out, up to maxChunk; name chunks do the same in
// bytes. A netlist of n elements allocates about n/maxChunk times, and
// at most one chunk's worth of it is never handed out.
const (
	minChunk     = 16
	maxChunk     = 256
	minNameChunk = 256
	maxNameChunk = 4 << 10
)

// Slab hands out elements of type T. The zero Slab is ready to use.
type Slab[T any] struct {
	chunk []T // the current chunk; its length counts what was handed out
	total int // elements handed out from every chunk, which sizes the next
}

// Grow makes room for at least n more elements in the current chunk,
// starting a new chunk of exactly n if it has less. Like
// bytes.Buffer.Grow it is a capacity hint: elements beyond n still come
// from new chunks.
func (s *Slab[T]) Grow(n int) {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]T, 0, n)
	}
}

// New returns a pointer to a new zero element.
func (s *Slab[T]) New() *T {
	s.reserve(1)
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// Copy returns a copy of src, capped at its length; an empty src gives
// nil.
func (s *Slab[T]) Copy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	s.reserve(len(src))
	i := len(s.chunk)
	s.chunk = append(s.chunk, src...)
	return s.chunk[i:len(s.chunk):len(s.chunk)]
}

// reserve starts a new chunk unless the current one has room for n more
// elements, and counts them as handed out.
func (s *Slab[T]) reserve(n int) {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]T, 0, max(n, min(max(s.total, minChunk), maxChunk)))
	}
	s.total += n
}

// Names cuts short strings, such as a netlist's node and LUT names, out
// of chunks of bytes, so that they cost a few allocations instead of one
// each. A name is a substring of a strings.Builder's buffer; a full
// buffer is replaced, never grown, and a strings.Builder never rewrites
// the bytes it has written, so every name stays valid. The zero Names is
// ready to use.
type Names struct {
	b      strings.Builder
	total  int // bytes cut from every chunk, which sizes the next
	digits [20]byte
}

// Copy returns a copy of s, which keeps none of the memory s points into
// alive.
func (ns *Names) Copy(s string) string {
	ns.reserve(len(s))
	start := ns.b.Len()
	ns.b.WriteString(s)
	return ns.b.String()[start:]
}

// Numbered returns base, then sep, then i in decimal.
func (ns *Names) Numbered(base, sep string, i int) string {
	d := strconv.AppendInt(ns.digits[:0], int64(i), 10)
	ns.reserve(len(base) + len(sep) + len(d))
	start := ns.b.Len()
	ns.b.WriteString(base)
	ns.b.WriteString(sep)
	ns.b.Write(d)
	return ns.b.String()[start:]
}

// reserve starts a new chunk unless the current one has room for n more
// bytes, and counts them as cut.
func (ns *Names) reserve(n int) {
	if ns.b.Cap()-ns.b.Len() < n {
		ns.b.Reset()
		ns.b.Grow(max(n, min(max(ns.total, minNameChunk), maxNameChunk)))
	}
	ns.total += n
}
