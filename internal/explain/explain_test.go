package explain

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"chortle/internal/core"
	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/obs"
)

// testNetwork builds a small two-output network with fanout (so the
// forest has more than one tree) and an inverted edge.
func testNetwork(t *testing.T) *network.Network {
	t.Helper()
	nw := network.New("demo")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	d := nw.AddInput("d")
	g1 := nw.AddGate("g1", network.OpAnd,
		network.Fanin{Node: a}, network.Fanin{Node: b, Invert: true})
	g2 := nw.AddGate("g2", network.OpOr,
		network.Fanin{Node: g1}, network.Fanin{Node: c})
	g3 := nw.AddGate("g3", network.OpAnd,
		network.Fanin{Node: g1}, network.Fanin{Node: d})
	nw.MarkOutput("f", g2, false)
	nw.MarkOutput("g", g3, true)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func mapWithProvenance(t *testing.T, nw *network.Network) *core.Result {
	t.Helper()
	opts := core.DefaultOptions(3)
	opts.Provenance = true
	res, err := core.Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNetworkDOTValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := NetworkDOT(&buf, testNetwork(t)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDOT(buf.Bytes()); err != nil {
		t.Fatalf("network DOT invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{`"g1"`, `arrowhead=odot`, `"out:f"`, `shape=box`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("network DOT missing %q", want)
		}
	}
}

func TestForestDOTValidates(t *testing.T) {
	nw := testNetwork(t)
	f, err := forest.Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ForestDOT(&buf, f); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDOT(buf.Bytes()); err != nil {
		t.Fatalf("forest DOT invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "subgraph") {
		t.Error("forest DOT has no tree clusters")
	}
	if !strings.Contains(buf.String(), "style=dashed") {
		t.Error("forest DOT has no dashed leaf edges")
	}
}

func TestCircuitDOTValidatesAndClusters(t *testing.T) {
	res := mapWithProvenance(t, testNetwork(t))
	var buf bytes.Buffer
	if err := CircuitDOT(&buf, res.Circuit); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDOT(buf.Bytes()); err != nil {
		t.Fatalf("circuit DOT invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "subgraph") {
		t.Error("provenance-recorded circuit DOT has no tree clusters")
	}
	if !strings.Contains(out, colorSearched) {
		t.Error("no searched-origin fill color in circuit DOT")
	}
}

func TestCircuitDOTWithoutProvenance(t *testing.T) {
	nw := testNetwork(t)
	res, err := core.Map(nw, core.DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CircuitDOT(&buf, res.Circuit); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDOT(buf.Bytes()); err != nil {
		t.Fatalf("flat circuit DOT invalid: %v", err)
	}
	if strings.Contains(buf.String(), "subgraph") {
		t.Error("circuit without provenance should render flat")
	}
}

// TestCircuitDOTDeterministic pins byte-identity across worker counts
// (GOMAXPROCS 1 and 4) — the property the golden DOT files rely on.
func TestCircuitDOTDeterministic(t *testing.T) {
	nw := testNetwork(t)
	var first []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		opts := core.DefaultOptions(3)
		opts.Provenance = true
		res, err := core.Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := CircuitDOT(&buf, res.Circuit); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("circuit DOT differs at %d workers", procs)
		}
	}
}

func TestValidateDOTRejects(t *testing.T) {
	cases := map[string]string{
		"no header":        "graph x {\n}\n",
		"unclosed brace":   "digraph \"g\" {\n",
		"extra brace":      "digraph \"g\" {\n}\n}\n",
		"undeclared edge":  "digraph \"g\" {\n  \"a\";\n  \"a\" -> \"b\";\n}\n",
		"edge before decl": "digraph \"g\" {\n  \"a\" -> \"b\";\n  \"a\";\n  \"b\";\n}\n",
		"bad quote":        "digraph \"g\" {\n  \"a;\n}\n",
	}
	for name, doc := range cases {
		if err := ValidateDOT([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted invalid document", name)
		}
	}
}

func TestWriteHTMLSelfContained(t *testing.T) {
	nw := testNetwork(t)
	col := &obs.Collector{}
	opts := core.DefaultOptions(3)
	opts.Provenance = true
	opts.Observer = col
	res, err := core.Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	var dot bytes.Buffer
	if err := CircuitDOT(&dot, res.Circuit); err != nil {
		t.Fatal(err)
	}
	data := &ReportData{
		Title:     "demo mapping report",
		Generated: "generated for test",
		Compare: []CompareRow{{
			Circuit: "demo", BaselineLUTs: 5, ChortleLUTs: res.LUTs, DiffPct: -20,
		}},
		Sections: []CircuitSection{{
			Name: "demo", K: 3, LUTs: res.LUTs, Trees: res.Trees,
			Origins: res.Circuit.OriginCounts(),
			Stats:   col.Report(),
			DOT:     dot.String(),
		}},
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, data); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Self-containment: nothing in the file may reference the outside
	// world — no URLs, no external resource loads of any kind.
	for _, banned := range []string{"http", "src="} {
		if strings.Contains(out, banned) {
			t.Errorf("report contains %q — not self-contained", banned)
		}
	}
	for _, want := range []string{
		"demo mapping report", "<svg", "Baseline comparison",
		"Phase wall times", "LUT origins", "DOT source",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteHTMLEmptySections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHTML(&buf, &ReportData{Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("title not rendered")
	}
}
