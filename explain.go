package chortle

import (
	"io"
	"log/slog"

	"chortle/internal/explain"
	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/obs"
)

// Explainability. Setting Options.Provenance makes the mapper record,
// on every emitted LUT, where it came from: the gate nodes it covers,
// the decomposition shape that produced it, its fanin LUTs, the owning
// fanout-free tree, and how the tree was solved (fresh search, memo
// reuse, bin packing, budget degradation). The record is read back with
// Circuit.ProvenanceOf and rendered by the DOT and HTML exporters below.
// Provenance is strictly passive: the mapped circuit is byte-identical
// with or without it, and when it is off the hot path pays nothing.

// Provenance is one LUT's origin record (Circuit.ProvenanceOf).
type Provenance = lut.Provenance

// Origin classifies how a LUT's owning tree was solved.
type Origin = lut.Origin

// Origin values, from least to most remarkable.
const (
	OriginUnknown  = lut.OriginUnknown
	OriginFresh    = lut.OriginFresh
	OriginMemo     = lut.OriginMemo
	OriginBinPack  = lut.OriginBinPack
	OriginDegraded = lut.OriginDegraded
)

// WriteNetworkDOT renders a Boolean network as a Graphviz digraph:
// primary inputs as boxes, gates labeled with their op and fanin count,
// inverted edges with odot arrowheads, outputs as double circles. The
// output is deterministic — same network, same bytes.
func WriteNetworkDOT(w io.Writer, nw *Network) error {
	return explain.NetworkDOT(w, nw)
}

// WriteForestDOT decomposes the network into maximal fanout-free trees
// and renders the forest: one cluster per tree, dashed edges where a
// tree consumes another tree's root. The network is cloned first, so
// the caller's copy is untouched.
func WriteForestDOT(w io.Writer, nw *Network) error {
	f, err := forest.Decompose(nw.Clone())
	if err != nil {
		return err
	}
	return explain.ForestDOT(w, f)
}

// WriteCircuitDOT renders a mapped circuit. When the circuit carries
// provenance (Options.Provenance), LUTs are clustered by owning tree,
// labeled with their decomposition shape, and colored by origin class;
// without provenance the graph is flat. Deterministic either way — in
// particular, identical at every worker count.
func WriteCircuitDOT(w io.Writer, c *Circuit) error {
	return explain.CircuitDOT(w, c)
}

// ValidateDOT structurally checks a DOT document produced by the
// exporters above — balanced braces, every edge endpoint declared
// before use — without needing Graphviz installed.
func ValidateDOT(data []byte) error { return explain.ValidateDOT(data) }

// RunReport is everything WriteRunReport renders: a title, optional
// baseline comparison rows, and one section per mapped circuit.
type RunReport = explain.ReportData

// ReportCompareRow is one circuit's baseline-versus-Chortle line in a
// RunReport's comparison table.
type ReportCompareRow = explain.CompareRow

// ReportSection is one circuit's section of a RunReport: headline
// statistics, the provenance origin breakdown, the aggregated
// observability report, and an optional embedded DOT source.
type ReportSection = explain.CircuitSection

// WriteRunReport renders the report as a single self-contained HTML
// file: inline styles and inline SVG charts, no references to anything
// outside the file — suitable for archiving as a CI artifact.
func WriteRunReport(w io.Writer, d *RunReport) error {
	return explain.WriteHTML(w, d)
}

// NewSlogObserver returns an Observer that narrates a mapping run
// through a log/slog logger (slog.Default() when l is nil): run-level
// events at Info, per-tree detail at Debug.
func NewSlogObserver(l *slog.Logger) Observer { return obs.NewSlogObserver(l) }
