// Package explain turns mapping results and their provenance records
// into human-inspectable artifacts: deterministic DOT/Graphviz graphs
// of the Boolean network, the fanout-free forest and the mapped LUT
// circuit, and a self-contained single-file HTML run report. Everything
// here is read-only over its inputs and uses only the standard library.
package explain

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/network"
)

// DOT output discipline: node statements are emitted before any edge
// that mentions them (ValidateDOT enforces declared-before-used), every
// iteration order is a stored slice order (never a map walk), and the
// bytes depend only on the input structures — so the exporters are
// golden-testable and identical at every worker count.

// Origin-class fill colors for CircuitDOT. The exporter colors by
// Origin.Searched() — the classification shared by fresh solves and
// reuse — rather than by raw origin, so a cold run and one through a
// warm shared cache produce byte-identical DOT (the full origin
// breakdown belongs to the HTML report, which is per-run by nature).
const (
	colorSearched = "#cfe2f3" // exhaustive search (fresh, memo)
	colorBinPack  = "#fff2cc" // bin-packing strategy
	colorDegraded = "#f4cccc" // budget-degraded tree
	colorPlain    = "#ffffff" // no provenance recorded
)

// quoteID renders s as a quoted DOT identifier.
func quoteID(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// escLabel escapes s for use inside a quoted DOT label.
func escLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

type dotWriter struct {
	w   *bufio.Writer
	err error
}

func (d *dotWriter) printf(format string, args ...any) {
	if d.err != nil {
		return
	}
	_, d.err = fmt.Fprintf(d.w, format, args...)
}

func (d *dotWriter) finish() error {
	if d.err != nil {
		return d.err
	}
	return d.w.Flush()
}

// edge is one deferred DOT edge (printed after all node declarations).
type edge struct {
	from, to string
	invert   bool
}

func (d *dotWriter) edges(es []edge) {
	for _, e := range es {
		if e.invert {
			d.printf("  %s -> %s [arrowhead=odot];\n", quoteID(e.from), quoteID(e.to))
		} else {
			d.printf("  %s -> %s;\n", quoteID(e.from), quoteID(e.to))
		}
	}
}

// NetworkDOT writes the Boolean network as a DOT digraph: primary
// inputs as boxes, gates labeled with their operation, outputs as
// double circles, and inverted edges marked with an open-dot arrowhead.
func NetworkDOT(w io.Writer, nw *network.Network) error {
	d := &dotWriter{w: bufio.NewWriter(w)}
	d.printf("digraph %s {\n", quoteID("network:"+nw.Name))
	d.printf("  rankdir=BT;\n")
	d.printf("  node [fontname=\"monospace\"];\n")
	var es []edge
	for _, n := range nw.Nodes {
		if n.IsInput() {
			d.printf("  %s [shape=box];\n", quoteID(n.Name))
			continue
		}
		d.printf("  %s [label=\"%s\\n%s/%d\"];\n",
			quoteID(n.Name), escLabel(n.Name), n.Op, len(n.Fanins))
		for _, f := range n.Fanins {
			es = append(es, edge{from: f.Node.Name, to: n.Name, invert: f.Invert})
		}
	}
	for _, o := range nw.Outputs {
		id := "out:" + o.Name
		d.printf("  %s [shape=doublecircle,label=%s];\n", quoteID(id), quoteID(o.Name))
		es = append(es, edge{from: o.Node.Name, to: id, invert: o.Invert})
	}
	d.edges(es)
	d.printf("}\n")
	return d.finish()
}

// ForestDOT writes the fanout-free forest as a DOT digraph with one
// cluster per tree (in root order); leaf edges — references to primary
// inputs or other trees' roots — cross cluster boundaries dashed.
func ForestDOT(w io.Writer, f *forest.Forest) error {
	d := &dotWriter{w: bufio.NewWriter(w)}
	d.printf("digraph %s {\n", quoteID("forest:"+f.Net.Name))
	d.printf("  rankdir=BT;\n")
	d.printf("  node [fontname=\"monospace\"];\n")
	for _, in := range f.Net.Inputs {
		d.printf("  %s [shape=box];\n", quoteID(in.Name))
	}
	var inner, leaf []edge
	for i, root := range f.Roots {
		d.printf("  subgraph %s {\n", quoteID(fmt.Sprintf("cluster_t%d", i)))
		d.printf("    label=%s;\n", quoteID("tree "+root.Name))
		for _, n := range f.TreeNodes(root) {
			d.printf("    %s [label=\"%s\\n%s/%d\"];\n",
				quoteID(n.Name), escLabel(n.Name), n.Op, len(n.Fanins))
			for _, fn := range n.Fanins {
				e := edge{from: fn.Node.Name, to: n.Name, invert: fn.Invert}
				if f.IsLeafEdge(fn.Node) {
					leaf = append(leaf, e)
				} else {
					inner = append(inner, e)
				}
			}
		}
		d.printf("  }\n")
	}
	d.edges(inner)
	for _, e := range leaf {
		arrow := ""
		if e.invert {
			arrow = ",arrowhead=odot"
		}
		d.printf("  %s -> %s [style=dashed%s];\n", quoteID(e.from), quoteID(e.to), arrow)
	}
	d.printf("}\n")
	return d.finish()
}

// lutColor classifies a LUT's fill by its provenance origin class.
func lutColor(p *lut.Provenance) string {
	switch {
	case p == nil:
		return colorPlain
	case p.Origin == lut.OriginDegraded:
		return colorDegraded
	case p.Origin.Searched():
		return colorSearched
	default:
		return colorBinPack
	}
}

// CircuitDOT writes the mapped LUT circuit as a DOT digraph. With
// provenance recorded, LUTs are clustered by owning tree (in first-
// emission order), labeled with their decomposition shape, and filled
// by origin class; without it the circuit renders flat. Output markers
// and latch boxes carry the polarity of their driving edge.
func CircuitDOT(w io.Writer, c *lut.Circuit) error {
	d := &dotWriter{w: bufio.NewWriter(w)}
	d.printf("digraph %s {\n", quoteID("circuit:"+c.Name))
	d.printf("  rankdir=BT;\n")
	d.printf("  node [fontname=\"monospace\",style=filled,fillcolor=\"%s\"];\n", colorPlain)
	for _, in := range c.Inputs {
		d.printf("  %s [shape=box];\n", quoteID(in))
	}

	lutDecl := func(indent string, l *lut.LUT, p *lut.Provenance) {
		label := fmt.Sprintf("%s\\n%d-LUT", escLabel(l.Name), len(l.Inputs))
		if p != nil && p.Shape != "" {
			label = fmt.Sprintf("%s\\n%s", escLabel(l.Name), escLabel(p.Shape))
		}
		d.printf("%s%s [label=\"%s\",fillcolor=\"%s\"];\n", indent, quoteID(l.Name), label, lutColor(p))
	}

	declared := make(map[string]bool, len(c.LUTs))
	if c.HasProvenance() {
		trees := c.ProvenanceTrees()
		byTree := make(map[string][]*lut.LUT, len(trees))
		for _, l := range c.LUTs {
			if p := c.ProvenanceOf(l.Name); p != nil {
				byTree[p.Tree] = append(byTree[p.Tree], l)
			}
		}
		for i, tree := range trees {
			d.printf("  subgraph %s {\n", quoteID(fmt.Sprintf("cluster_t%d", i)))
			d.printf("    label=%s;\n", quoteID("tree "+tree))
			for _, l := range byTree[tree] {
				lutDecl("    ", l, c.ProvenanceOf(l.Name))
				declared[l.Name] = true
			}
			d.printf("  }\n")
		}
	}
	for _, l := range c.LUTs {
		if !declared[l.Name] {
			lutDecl("  ", l, c.ProvenanceOf(l.Name))
		}
	}

	var es []edge
	for _, l := range c.LUTs {
		for _, in := range l.Inputs {
			es = append(es, edge{from: in, to: l.Name})
		}
	}
	for _, o := range c.Outputs {
		id := "out:" + o.Name
		d.printf("  %s [shape=doublecircle,label=%s];\n", quoteID(id), quoteID(o.Name))
		es = append(es, edge{from: o.Signal, to: id, invert: o.Invert})
	}
	for _, la := range c.Latches {
		id := "latch:" + la.Q
		d.printf("  %s [shape=Msquare,label=%s];\n", quoteID(id), quoteID(la.Q))
		es = append(es, edge{from: la.D, to: id, invert: la.DInv})
	}
	d.edges(es)
	d.printf("}\n")
	return d.finish()
}
