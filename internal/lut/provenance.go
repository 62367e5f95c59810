package lut

import (
	"fmt"
	"sort"
	"strings"
)

// Per-LUT provenance: the algorithm-level "why" behind every emitted
// lookup table. The mapper records, for each LUT, which network gate
// nodes it absorbed, which decomposition shape the DP chose at its
// root, how the owning tree was realized (fresh solve, memo reuse, bin
// packing, budget degradation), and how much
// search effort the tree's solve metered. Recording is opt-in
// (core.Options.Provenance) and strictly passive — the mapped circuit
// is byte-identical with or without it — but the records ride on the
// Circuit itself so they survive emission, duplication and repacking,
// and downstream exporters (internal/explain) can turn them into DOT
// graphs and run reports.

// Origin says how the tree that emitted a LUT was realized.
type Origin uint8

const (
	// OriginUnknown is the zero value: no origin recorded.
	OriginUnknown Origin = iota
	// OriginFresh marks a tree mapped by its own exhaustive DP solve.
	OriginFresh
	// OriginMemo marks a tree that reused the DP tables of a
	// structurally identical tree solved earlier in the same run.
	OriginMemo
	// OriginBinPack marks a tree mapped with the Chortle-crf-style
	// first-fit-decreasing strategy (Options.Strategy).
	OriginBinPack
	// OriginDegraded marks a tree remapped with bin packing after its
	// exhaustive solve exhausted the search budget.
	OriginDegraded
	// OriginCut marks a LUT selected by the priority-cut DAG engine
	// (internal/cut): one K-feasible cut chosen by the area-flow cover.
	OriginCut
)

var originNames = [...]string{
	OriginUnknown:  "unknown",
	OriginFresh:    "fresh",
	OriginMemo:     "memo",
	OriginBinPack:  "binpack",
	OriginDegraded: "degraded",
	OriginCut:      "cut",
}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Searched reports whether the LUT's structure came out of the
// exhaustive decomposition search (directly or via verified reuse) as
// opposed to bin packing. Memo hits reproduce the exact decisions of a
// fresh solve, so they count as searched — this is the mode-independent
// classification the DOT exporter colors by.
func (o Origin) Searched() bool {
	return o == OriginFresh || o == OriginMemo
}

// Provenance is the recorded ancestry of one LUT.
type Provenance struct {
	// Tree is the name of the fanout-free tree root whose realization
	// emitted this LUT.
	Tree string
	// Origin says how that tree was realized.
	Origin Origin
	// Covers lists the network gate nodes this LUT fully absorbed, in
	// emission order. Across a provenance-recorded mapping the Covers
	// sets partition the prepared network's gate nodes: every gate
	// appears in exactly one LUT's Covers.
	Covers []string
	// PartOf names the gate node this LUT partially computes when it
	// covers no complete node — an intermediate LUT introduced by the
	// decomposition search, or an under-filled bin from the packing
	// strategy. Empty when Covers is non-empty.
	PartOf string
	// Shape describes the decomposition the DP chose at this LUT's
	// root: the op, the root utilization, and one token per placement
	// ("pin" for a finished signal, "merge(...)" for an absorbed child
	// root LUT with its own placements, "grpN" for an intermediate
	// group over N fanins). Bin-packed LUTs record "pack(N)" with their
	// input count.
	Shape string
	// FaninLUTs lists the inputs of this LUT that are other LUTs (in
	// input order) — the LUT-to-LUT edges of the mapped circuit.
	FaninLUTs []string
	// WorkUnits is the search effort the owning tree's DP solve
	// metered. Zero for reused solves (memo) and for the
	// unmetered packing paths.
	WorkUnits int64
}

// SetProvenance attaches a provenance record to the named LUT,
// replacing any previous record.
func (c *Circuit) SetProvenance(name string, p *Provenance) {
	if c.prov == nil {
		c.prov = make(map[string]*Provenance)
	}
	c.prov[name] = p
}

// ProvenanceOf returns the named LUT's provenance record, or nil when
// none was recorded (provenance off, or an unknown name).
func (c *Circuit) ProvenanceOf(name string) *Provenance { return c.prov[name] }

// HasProvenance reports whether any provenance was recorded.
func (c *Circuit) HasProvenance() bool { return len(c.prov) > 0 }

// OriginCounts histograms the circuit's LUTs by origin name — the
// breakdown the run report renders. LUTs without provenance count
// under "unknown".
func (c *Circuit) OriginCounts() map[string]int {
	out := make(map[string]int)
	for _, l := range c.LUTs {
		if p := c.prov[l.Name]; p != nil {
			out[p.Origin.String()]++
		} else {
			out[OriginUnknown.String()]++
		}
	}
	return out
}

// ProvenanceTrees returns the distinct provenance tree names in first-
// emission order — the cluster order of the DOT exporter.
func (c *Circuit) ProvenanceTrees() []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range c.LUTs {
		p := c.prov[l.Name]
		if p == nil || seen[p.Tree] {
			continue
		}
		seen[p.Tree] = true
		out = append(out, p.Tree)
	}
	return out
}

// CheckProvenance verifies the provenance invariants against the set
// of gate-node names the mapping covered: every LUT carries a record
// with a non-empty covered set (Covers, or PartOf for intermediate
// LUTs), the Covers sets are disjoint, and their union is exactly
// gates. It is the library half of the mapper's invariant test.
func (c *Circuit) CheckProvenance(gates map[string]bool) error {
	owned := make(map[string]string, len(gates))
	for _, l := range c.LUTs {
		p := c.prov[l.Name]
		if p == nil {
			return fmt.Errorf("lut %q has no provenance record", l.Name)
		}
		if len(p.Covers) == 0 && p.PartOf == "" {
			return fmt.Errorf("lut %q covers nothing and is part of nothing", l.Name)
		}
		if p.Tree == "" {
			return fmt.Errorf("lut %q has no owning tree", l.Name)
		}
		if p.Origin == OriginUnknown {
			return fmt.Errorf("lut %q has unknown origin", l.Name)
		}
		for _, n := range p.Covers {
			if prev, dup := owned[n]; dup {
				return fmt.Errorf("gate %q covered by both %q and %q", n, prev, l.Name)
			}
			owned[n] = l.Name
			if !gates[n] {
				return fmt.Errorf("lut %q covers %q, which is not a mapped gate", l.Name, n)
			}
		}
	}
	if len(owned) != len(gates) {
		var missing []string
		for g := range gates {
			if _, ok := owned[g]; !ok {
				missing = append(missing, g)
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("%d gates uncovered: %s", len(missing), strings.Join(missing, ", "))
	}
	return nil
}
