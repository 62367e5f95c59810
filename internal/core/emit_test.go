package core

import (
	"fmt"
	"strings"
	"testing"

	"chortle/internal/forest"
	"chortle/internal/network"
)

// TestReconstructNamesAvoidClashes pins the names reconstruction picks
// when the obvious ones are taken. Inputs g$l1 and g$l2 look like the
// fresh names of gate g's intermediate LUTs, so the fresh-name sequence
// must skip them. The root of the second tree is called g$l3, which g's
// tree has already used by then, so that root LUT takes a fresh name.
func TestReconstructNamesAvoidClashes(t *testing.T) {
	nw := network.New("clash")
	var ins []*network.Node
	for _, name := range []string{"a", "b", "c", "d", "e", "g$l1", "g$l2"} {
		ins = append(ins, nw.AddInput(name))
	}
	fin := func(n *network.Node, inv bool) network.Fanin { return network.Fanin{Node: n, Invert: inv} }
	g := nw.AddGate("g", network.OpAnd, fin(ins[0], false), fin(ins[1], true), fin(ins[2], false), fin(ins[3], false), fin(ins[5], false))
	h := nw.AddGate("g$l3", network.OpOr, fin(g, true), fin(ins[6], false), fin(ins[4], true))
	nw.MarkOutput("y1", g, false)
	nw.MarkOutput("y2", h, false)

	res, err := Map(nw, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Circuit.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `.model clash
.inputs a b c d e g$l1 g$l2
.outputs y1 y2
.names d g$l1 g$l5
11 1
.names c g$l5 g$l4
11 1
.names b g$l4 g$l3
01 1
.names a g$l3 g
11 1
.names g$l2 e g$l3$l7
00 1
10 1
11 1
.names g g$l3$l7 g$l3$l6
00 1
01 1
11 1
.names g y1
1 1
.names g$l3$l6 y2
1 1
.end
`
	if got := sb.String(); got != want {
		t.Errorf("BLIF:\n%s\nwant:\n%s", got, want)
	}
}

// corruptTree solves, at K=k, a single AND gate r over n inputs — the
// first of them through an OR gate c over three more inputs when child
// is set — hands its DP tables to corrupt, and reconstructs the tree
// from them.
func corruptTree(t *testing.T, n, k int, child bool, corrupt func(dp *nodeDP)) error {
	t.Helper()
	nw := network.New("corrupt")
	fins := make([]network.Fanin, n)
	for i := range fins {
		fins[i] = network.Fanin{Node: nw.AddInput(fmt.Sprintf("x%d", i))}
	}
	if child {
		y := make([]network.Fanin, 3)
		for i := range y {
			y[i] = network.Fanin{Node: nw.AddInput(fmt.Sprintf("y%d", i))}
		}
		fins[0] = network.Fanin{Node: nw.AddGate("c", network.OpOr, y...)}
	}
	root := nw.AddGate("r", network.OpAnd, fins...)
	nw.MarkOutput("y", root, false)
	f, err := forest.Decompose(nw)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(k)
	dp := buildDP(f, root, opts)
	corrupt(dp)
	_, err = newMapper(nw, f, opts).realizeTreeFromDP(root, dp)
	return err
}

func setG(dp *nodeDP, s uint32, u int, v int32) {
	dp.g[int(s)*int(dp.stride)+u] = v
}

// TestReconstructRefusesCorruptChoices corrupts DP table cells so that
// the choices derived from them disagree with each other, and checks
// that reconstruction refuses each inconsistency with its error instead
// of emitting a wrong LUT or panicking.
func TestReconstructRefusesCorruptChoices(t *testing.T) {
	// An intermediate group d over K+1 inputs granted K+1 pins: its walk
	// places one input per pin. At K=6 the seventh must be refused before
	// it indexes a projection column. The root of K+2 inputs takes d, its
	// first group, once its pivot's pin is made infeasible; the cell
	// (d, K+1) that starts d's walk lies one past d's row, in row d+1.
	for _, k := range []int{2, 6} {
		err := corruptTree(t, k+2, k, false, func(dp *nodeDP) {
			d := dp.full &^ 2
			dp.bestU = 2
			dp.mmBestU[d] = int8(k + 1)
			setG(dp, dp.full^1, 1, infinity)
			setG(dp, d, k+1, 0)
		})
		want := fmt.Sprintf(`core: LUT "r$l1" collected %d inputs for K=%d`, k+1, k)
		if err == nil || err.Error() != want {
			t.Errorf("K=%d: error %v, want %s", k, err, want)
		}
	}

	cases := []struct {
		name    string
		child   bool
		corrupt func(dp *nodeDP)
		want    string
	}{
		// Merging c with all three pins of (111, 3) leaves inputs 1 and 2
		// without a pin.
		{"underflow", true, func(dp *nodeDP) {
			dp.bestU = 3
			setG(dp, 0b111, 3, 0)
			setG(dp, 0b110, 0, 0)
		}, `core: utilization underflow reconstructing "r"`},
		// Three inputs claim four pins, one each and one for nothing.
		{"leftover", false, func(dp *nodeDP) {
			dp.bestU = 4
			setG(dp, 0b111, 4, 0)
			setG(dp, 0b110, 3, 0)
			setG(dp, 0b100, 2, 0)
			setG(dp, 0b000, 1, 0)
		}, `core: utilization leftover 1 reconstructing "r"`},
		// No candidate of (111, 3) costs 5.
		{"no choice", false, func(dp *nodeDP) {
			setG(dp, 0b111, dp.bestU, 5)
		}, `core: no DP choice for "r" subset 111 utilization 3`},
	}
	for _, c := range cases {
		err := corruptTree(t, 3, 4, c.child, c.corrupt)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
	}
}

// TestReconstructRootNameClashes pins two trees whose root names have
// the form of fresh LUT names. Root g$l1 finds its name taken by an
// intermediate LUT of tree g, mapped before it, and takes a fresh one.
// Root c$l1 holds its name while its own child, whose LUT is added
// first, is named: the child must skip c$l1, where it once took it and
// the root's LUT panicked as a duplicate.
func TestReconstructRootNameClashes(t *testing.T) {
	fin := func(n *network.Node, inv bool) network.Fanin { return network.Fanin{Node: n, Invert: inv} }
	mapped := func(nw *network.Network) string {
		t.Helper()
		res, err := Map(nw, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.Circuit.WriteBLIF(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	nw := network.New("rootclash")
	var ins []*network.Node
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		ins = append(ins, nw.AddInput(name))
	}
	g := nw.AddGate("g", network.OpAnd, fin(ins[0], false), fin(ins[1], true), fin(ins[2], false), fin(ins[3], false), fin(ins[5], false))
	h := nw.AddGate("g$l1", network.OpOr, fin(g, true), fin(ins[4], true), fin(ins[5], false))
	nw.MarkOutput("y1", g, false)
	nw.MarkOutput("y2", h, false)
	const wantTaken = `.model rootclash
.inputs a b c d e f
.outputs y1 y2
.names d f g$l3
11 1
.names c g$l3 g$l2
11 1
.names b g$l2 g$l1
01 1
.names a g$l1 g
11 1
.names e f g$l1$l5
00 1
01 1
11 1
.names g g$l1$l5 g$l1$l4
00 1
01 1
11 1
.names g y1
1 1
.names g$l1$l4 y2
1 1
.end
`
	if got := mapped(nw); got != wantTaken {
		t.Errorf("taken root name: BLIF\n%s\nwant:\n%s", got, wantTaken)
	}

	nw = network.New("selfclash")
	a, b, d := nw.AddInput("a"), nw.AddInput("b"), nw.AddInput("d")
	c := nw.AddGate("c", network.OpAnd, fin(a, false), fin(b, false))
	r := nw.AddGate("c$l1", network.OpOr, fin(c, false), fin(d, false))
	nw.MarkOutput("y", r, false)
	const wantPending = `.model selfclash
.inputs a b d
.outputs y
.names a b c$l2
11 1
.names c$l2 d c$l1
10 1
01 1
11 1
.names c$l1 y
1 1
.end
`
	if got := mapped(nw); got != wantPending {
		t.Errorf("pending root name: BLIF\n%s\nwant:\n%s", got, wantPending)
	}
}
