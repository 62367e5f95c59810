package core

import (
	"strconv"
	"strings"

	"chortle/internal/lut"
)

// Provenance recording — the algorithm-level explainability layer.
//
// When Options.Provenance is set, every emission path annotates the
// LUTs it adds with a lut.Provenance record: the covered gate nodes,
// the decomposition shape chosen at the LUT's root, the owning tree,
// the realization origin, and the tree solve's metered work units.
// The discipline mirrors the observer layer's: recording is strictly
// passive (the emitted circuit is byte-identical with provenance on or
// off, at every worker count and Budget), and with the option off
// every hook is a nil check that allocates nothing — pinned by
// TestProvenanceHooksOffZeroAlloc.

// provFrame accumulates one LUT's provenance while the reconstruction
// walk collects its groups. A nil frame disables all recording.
type provFrame struct {
	// covers lists the gate nodes fully absorbed by this LUT.
	covers []string
	// partOf names the node this LUT partially computes when it is an
	// intermediate group (or an under-filled bin) rather than any
	// node's completed root.
	partOf string
	// shape accumulates one token per placement of the root walk.
	shape strings.Builder
}

// cover records a gate node absorbed into the frame's LUT.
func (pf *provFrame) cover(name string) {
	if pf == nil {
		return
	}
	pf.covers = append(pf.covers, name)
}

// token appends one shape token ("pin", "grp3", "merge(", ")", ...).
// Tokens inside a group list are comma-separated.
func (pf *provFrame) token(s string) {
	if pf == nil {
		return
	}
	b := &pf.shape
	if n := b.Len(); n > 0 {
		if last := b.String()[n-1]; last != '(' {
			b.WriteByte(',')
		}
	}
	b.WriteString(s)
}

// open starts a nested token group: "merge(" ... ")".
func (pf *provFrame) open(prefix string) {
	if pf == nil {
		return
	}
	pf.token(prefix)
	pf.shape.WriteByte('(')
}

func (pf *provFrame) close() {
	if pf == nil {
		return
	}
	pf.shape.WriteByte(')')
}

// ownerFrame is the frame for a LUT that completes a node's function —
// a tree root or an internal child realized as its own signal.
func ownerFrame(dp *nodeDP) *provFrame {
	return &provFrame{covers: []string{dp.node.Name}}
}

// groupFrame is the frame for an intermediate LUT covering a subset of
// dp's fanins: it completes no node and is attributed to dp partially.
func groupFrame(dp *nodeDP) *provFrame {
	return &provFrame{partOf: dp.node.Name}
}

// record finalizes the frame into a provenance record on the circuit,
// reading the current tree/origin/effort context off the mapper. The
// op and u arguments describe the LUT root (its node operation and the
// utilization the DP granted it).
func (m *mapper) recordProv(pf *provFrame, name string, inputs []string, opName string, u int) {
	if pf == nil {
		return
	}
	m.ckt.SetProvenance(name, &lut.Provenance{
		Tree:      m.provTree,
		Origin:    m.provOrigin,
		Covers:    pf.covers,
		PartOf:    pf.partOf,
		Shape:     "u" + strconv.Itoa(u) + ":" + opName + "[" + pf.shape.String() + "]",
		FaninLUTs: m.faninLUTs(inputs),
		WorkUnits: m.provUnits,
	})
}

// faninLUTs filters an input list down to the signals that are other
// LUTs (every non-LUT input is a primary input).
func (m *mapper) faninLUTs(inputs []string) []string {
	var out []string
	for _, in := range inputs {
		if m.ckt.Find(in) != nil {
			out = append(out, in)
		}
	}
	return out
}

// provFor builds the emission frame for one owning LUT, or nil when
// provenance is off — the single gate every hot-path caller tests.
func (m *mapper) provFor(dp *nodeDP) *provFrame {
	if !m.opts.Provenance {
		return nil
	}
	return ownerFrame(dp)
}

// provGroupFor is provFor for intermediate-group LUTs.
func (m *mapper) provGroupFor(dp *nodeDP) *provFrame {
	if !m.opts.Provenance {
		return nil
	}
	return groupFrame(dp)
}

// setProvTree resets the per-tree provenance context before a tree is
// realized. No-op (and alloc-free) when provenance is off.
func (m *mapper) setProvTree(tree string, origin lut.Origin, units int64) {
	if !m.opts.Provenance {
		return
	}
	m.provTree = tree
	m.provOrigin = origin
	m.provUnits = units
}
