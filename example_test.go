package chortle_test

import (
	"fmt"
	"log"
	"strings"

	"chortle"
)

// ExampleMap shows the core flow: parse, map to 4-input LUTs, verify,
// and inspect the result.
func ExampleMap() {
	const blif = `.model demo
.inputs a b c d
.outputs y
.names a b t
11 1
.names t c d y
1-- 1
-11 1
.end`
	nw, err := chortle.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		log.Fatal(err)
	}
	res, err := chortle.Map(nw, chortle.DefaultOptions(4))
	if err != nil {
		log.Fatal(err)
	}
	if err := chortle.Verify(nw, res.Circuit, 0, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d LUTs in %d trees\n", res.LUTs, res.Trees)
	// Output: 1 LUTs in 1 trees
}

// ExampleMapBaseline compares Chortle against the paper's MIS II-style
// baseline on the same network.
func ExampleMapBaseline() {
	const blif = `.model wide
.inputs a b c d e f
.outputs y
.names a b c d e f y
111111 1
.end`
	nw, err := chortle.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		log.Fatal(err)
	}
	cres, err := chortle.Map(nw, chortle.DefaultOptions(4))
	if err != nil {
		log.Fatal(err)
	}
	mres, err := chortle.MapBaseline(nw, 4)
	if err != nil {
		log.Fatal(err)
	}
	// Chortle's decomposition search packs the 6-input AND into two
	// LUTs; the structural library matcher needs three (its widest cell
	// shape does not align with the subject's balanced decomposition —
	// the structural bias the paper exploits).
	fmt.Printf("chortle=%d baseline=%d\n", cres.LUTs, mres.LUTs)
	// Output: chortle=2 baseline=3
}

// ExampleDefaultOptions demonstrates the option surface: the paper's
// defaults plus the extensions (depth objective, bin packing, repack).
func ExampleDefaultOptions() {
	o := chortle.DefaultOptions(5)
	fmt.Println(o.K, o.SplitThreshold, o.Strategy == chortle.StrategyExhaustive)
	// Output: 5 10 true
}

// ExampleWriteCircuitDOT is the README's explainability example: map
// with provenance recording on, read each LUT's origin record back, and
// export the circuit as a Graphviz digraph. Both the mapping and the
// DOT bytes are deterministic — across runs and worker counts — which
// is what makes the output pinnable here.
func ExampleWriteCircuitDOT() {
	const blif = `.model demo
.inputs a b c d e
.outputs y
.names a b t
11 1
.names t c u
1- 1
-1 1
.names u d e y
111 1
.end`
	nw, err := chortle.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		log.Fatal(err)
	}
	opts := chortle.DefaultOptions(3)
	opts.Provenance = true
	res, err := chortle.Map(nw, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range res.Circuit.LUTs {
		p := res.Circuit.ProvenanceOf(l.Name)
		fmt.Printf("%s: tree=%s origin=%s shape=%s covers=%v\n",
			l.Name, p.Tree, p.Origin, p.Shape, p.Covers)
	}
	var dot strings.Builder
	if err := chortle.WriteCircuitDOT(&dot, res.Circuit); err != nil {
		log.Fatal(err)
	}
	fmt.Print(dot.String())
	// Output:
	// u$2$l1: tree=y$3 origin=fresh shape=u3:or[merge(pin,pin),pin] covers=[u$2 t$1]
	// y$3: tree=y$3 origin=fresh shape=u3:and[pin,pin,pin] covers=[y$3]
	// digraph "circuit:demo" {
	//   rankdir=BT;
	//   node [fontname="monospace",style=filled,fillcolor="#ffffff"];
	//   "a" [shape=box];
	//   "b" [shape=box];
	//   "c" [shape=box];
	//   "d" [shape=box];
	//   "e" [shape=box];
	//   subgraph "cluster_t0" {
	//     label="tree y$3";
	//     "u$2$l1" [label="u$2$l1\nu3:or[merge(pin,pin),pin]",fillcolor="#cfe2f3"];
	//     "y$3" [label="y$3\nu3:and[pin,pin,pin]",fillcolor="#cfe2f3"];
	//   }
	//   "out:y" [shape=doublecircle,label="y"];
	//   "a" -> "u$2$l1";
	//   "b" -> "u$2$l1";
	//   "c" -> "u$2$l1";
	//   "u$2$l1" -> "y$3";
	//   "d" -> "y$3";
	//   "e" -> "y$3";
	//   "y$3" -> "out:y";
	// }
}

// ExampleReadPLA maps an espresso-format PLA directly.
func ExampleReadPLA() {
	const pla = `.i 3
.o 1
.ilb a b c
.ob y
11- 1
--1 1
.e`
	nw, err := chortle.ReadPLA(strings.NewReader(pla))
	if err != nil {
		log.Fatal(err)
	}
	res, err := chortle.Map(nw, chortle.DefaultOptions(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.LUTs)
	// Output: 1
}
