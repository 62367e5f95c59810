package lut

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"chortle/internal/truth"
)

func sampleCircuit() *Circuit {
	c := New("sample", 3)
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("c")
	c.AddInput("d")
	and := truth.Var(0, 2).And(truth.Var(1, 2))
	c.AddLUT("l1", []string{"a", "b"}, and)
	maj := truth.FromFunc(3, func(m uint) bool {
		ones := 0
		for i := uint(0); i < 3; i++ {
			if m>>i&1 == 1 {
				ones++
			}
		}
		return ones >= 2
	})
	c.AddLUT("l2", []string{"l1", "c", "d"}, maj)
	c.MarkOutput("y", "l2", false)
	c.MarkOutput("z", "l1", true)
	return c
}

func TestValidateAndCount(t *testing.T) {
	c := sampleCircuit()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d", c.Count())
	}
}

func TestValidateRejects(t *testing.T) {
	c := New("bad", 2)
	c.AddInput("a")
	c.AddLUT("l", []string{"a", "ghost"}, truth.Var(0, 2))
	c.MarkOutput("y", "l", false)
	if err := c.Validate(); err == nil {
		t.Fatal("undefined signal accepted")
	}

	cyc := New("cyc", 2)
	cyc.AddInput("a")
	l1 := cyc.AddLUT("l1", []string{"a", "a"}, truth.Var(0, 2))
	l2 := cyc.AddLUT("l2", []string{"l1", "a"}, truth.Var(0, 2))
	l1.Inputs[1] = "l2"
	_ = l2
	cyc.MarkOutput("y", "l2", false)
	if err := cyc.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestAddLUTPanicsOnTooManyInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := New("p", 2)
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("x")
	c.AddLUT("l", []string{"a", "b", "x"}, truth.Const(3, true))
}

func TestSimulate(t *testing.T) {
	c := sampleCircuit()
	// Exhaustive over 4 inputs (16 patterns).
	assign := map[string]uint64{}
	for i, in := range []string{"a", "b", "c", "d"} {
		var w uint64
		for m := uint(0); m < 16; m++ {
			if m>>uint(i)&1 == 1 {
				w |= 1 << m
			}
		}
		assign[in] = w
	}
	got, err := c.Simulate(assign)
	if err != nil {
		t.Fatal(err)
	}
	for m := uint(0); m < 16; m++ {
		a, b := m&1 == 1, m>>1&1 == 1
		cc, d := m>>2&1 == 1, m>>3&1 == 1
		l1 := a && b
		ones := 0
		for _, v := range []bool{l1, cc, d} {
			if v {
				ones++
			}
		}
		wantY := ones >= 2
		wantZ := !l1
		if got["y"]>>m&1 == 1 != wantY {
			t.Fatalf("y wrong at %04b", m)
		}
		if got["z"]>>m&1 == 1 != wantZ {
			t.Fatalf("z wrong at %04b", m)
		}
	}
}

func TestStats(t *testing.T) {
	c := sampleCircuit()
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.LUTs != 2 || s.Depth != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Utilization[2] != 1 || s.Utilization[3] != 1 {
		t.Fatalf("Utilization = %v", s.Utilization)
	}
}

func TestWriteBLIF(t *testing.T) {
	c := sampleCircuit()
	var sb strings.Builder
	if err := c.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{".model sample", ".inputs a b c d", ".outputs y z", ".names"} {
		if !strings.Contains(text, want) {
			t.Fatalf("BLIF missing %q:\n%s", want, text)
		}
	}
	// The inverted output z must get an inverter table.
	if !strings.Contains(text, "0 1") {
		t.Fatalf("missing inverter row for inverted output:\n%s", text)
	}
}

func TestWriteBLIFConstantLUT(t *testing.T) {
	c := New("k", 2)
	c.AddInput("a")
	c.AddLUT("one", nil, truth.Const(0, true))
	c.AddLUT("zero2", []string{"a", "one"}, truth.Const(2, false))
	c.MarkOutput("y", "zero2", false)
	var sb strings.Builder
	if err := c.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, ".names one\n1\n") {
		t.Fatalf("constant-1 LUT emitted wrong:\n%s", text)
	}
}

func TestFind(t *testing.T) {
	c := sampleCircuit()
	if c.Find("l1") == nil || c.Find("nope") != nil {
		t.Fatal("Find broken")
	}
}

func TestCircuitString(t *testing.T) {
	c := sampleCircuit()
	s := c.String()
	for _, want := range []string{"circuit sample", "l1 = LUT(a,b)", "output z = !l1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

func TestLatchValidation(t *testing.T) {
	c := New("seq", 2)
	c.AddInput("q")
	c.AddInput("en")
	c.AddLUT("d", []string{"q", "en"}, truth.Var(0, 2).And(truth.Var(1, 2)))
	c.AddLatch("q", "d", false, '0')
	c.MarkOutput("y", "d", false)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New("bad", 2)
	bad.AddInput("a")
	bad.AddLUT("d", []string{"a", "a"}, truth.Var(0, 2))
	bad.AddLatch("q", "d", false, '0') // q is not an input
	bad.MarkOutput("y", "d", false)
	if err := bad.Validate(); err == nil {
		t.Fatal("latch with non-input Q accepted")
	}
	bad2 := New("bad2", 2)
	bad2.AddInput("q")
	bad2.AddLatch("q", "ghost", false, '0')
	bad2.MarkOutput("y", "q", false)
	if err := bad2.Validate(); err == nil {
		t.Fatal("latch with undefined D accepted")
	}
}

func TestSequentialBLIFEmission(t *testing.T) {
	c := New("seq", 2)
	c.AddInput("q")
	c.AddInput("en")
	c.AddLUT("d", []string{"q", "en"}, truth.Var(0, 2).Xor(truth.Var(1, 2)))
	c.AddLatch("q", "d", true, '1')
	c.MarkOutput("y", "q", false)
	var sb strings.Builder
	if err := c.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, ".latch") || !strings.Contains(text, " q 1") {
		t.Fatalf("latch line missing:\n%s", text)
	}
	if strings.Contains(text, ".inputs q") && !strings.Contains(text, ".inputs q$") {
		t.Fatalf("latch Q leaked into .inputs:\n%s", text)
	}
	// The inverted D gets an inverter table before the .latch line.
	if !strings.Contains(text, "0 1") {
		t.Fatalf("inverter for inverted D missing:\n%s", text)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=0")
		}
	}()
	New("bad", 0)
}

// blifCases are circuits whose BLIF text is pinned byte for byte: plain
// names, renamed LUTs, latch inverters, and hand-edited circuits.
func blifCases() map[string]*Circuit {
	and := truth.Var(0, 2).And(truth.Var(1, 2))
	xor := truth.Var(0, 2).Xor(truth.Var(1, 2))
	cases := map[string]*Circuit{}

	c := New("rows", 2)
	c.AddInput("a")
	c.AddInput("b")
	c.AddLUT("and", []string{"a", "b"}, and)
	c.AddLUT("xor", []string{"a", "b"}, xor)
	c.MarkOutput("p", "and", false)
	c.MarkOutput("q", "xor", true)
	cases["rows"] = c

	c = New("rename", 3)
	c.AddInput("a")
	c.AddInput("b")
	c.AddLUT("y", []string{"a", "b"}, and)
	c.AddLUT("y$int", []string{"y", "b"}, xor)
	c.AddLUT("one", []string{"a"}, truth.Const(1, true))
	c.AddLUT("zero", nil, truth.Const(0, false))
	c.MarkOutput("y", "y", true)
	c.MarkOutput("z", "y$int", false)
	c.MarkOutput("k", "one", false)
	c.MarkOutput("a", "a", false)
	cases["rename"] = c

	c = New("latch", 2)
	c.AddInput("q")
	c.AddInput("en")
	c.AddInput("q$D")
	c.AddLUT("d", []string{"q", "en"}, xor)
	c.AddLatch("q", "d", true, '1')
	c.AddLatch("q$D", "d", false, '2')
	c.MarkOutput("y", "q", false)
	cases["latch"] = c

	c = New("undefined", 2)
	c.AddInput("a")
	c.AddLUT("g", []string{"a", "ghost"}, and)
	c.MarkOutput("y", "g", false)
	c.MarkOutput("w", "nowhere", false)
	cases["undefined"] = c

	// A LUT dropped from the list but still indexed by name is reached
	// through its consumer, as before.
	c = New("edited", 2)
	c.AddInput("a")
	c.AddInput("b")
	c.AddLUT("g", []string{"a", "b"}, and)
	c.AddLUT("h", []string{"g", "b"}, xor)
	c.LUTs = c.LUTs[1:]
	c.MarkOutput("y", "h", false)
	cases["edited"] = c

	// Reordered list: positions no longer match.
	c = New("reordered", 2)
	c.AddInput("a")
	c.AddInput("b")
	c.AddLUT("g", []string{"a", "b"}, and)
	c.AddLUT("h", []string{"g", "b"}, xor)
	c.AddLUT("i", []string{"h", "a"}, and)
	c.LUTs[0], c.LUTs[2] = c.LUTs[2], c.LUTs[0]
	c.MarkOutput("y", "i", false)
	c.MarkOutput("x", "g", true)
	cases["reordered"] = c
	return cases
}

// TestWriteBLIFExact pins WriteBLIF's bytes for every naming path.
func TestWriteBLIFExact(t *testing.T) {
	want := map[string]string{
		"rows":      ".model rows\n.inputs a b\n.outputs p q\n.names a b and\n11 1\n.names a b xor\n10 1\n01 1\n.names and p\n1 1\n.names xor q\n0 1\n.end\n",
		"rename":    ".model rename\n.inputs a b\n.outputs a k y z\n.names a b y$int\n11 1\n.names y$int b y$int$int\n10 1\n01 1\n.names a one\n- 1\n.names zero\n.names one k\n1 1\n.names y$int y\n0 1\n.names y$int$int z\n1 1\n.end\n",
		"latch":     ".model latch\n.inputs en\n.outputs y\n.names q en d\n10 1\n01 1\n.names q y\n1 1\n.names d q$D$\n0 1\n.latch q$D$ q 1\n.latch d q$D 2\n.end\n",
		"undefined": ".model undefined\n.inputs a\n.outputs w y\n.names a  g\n11 1\n.names  w\n1 1\n.names g y\n1 1\n.end\n",
		"edited":    ".model edited\n.inputs a b\n.outputs y\n.names a b g\n11 1\n.names g b h\n10 1\n01 1\n.names h y\n1 1\n.end\n",
		"reordered": ".model reordered\n.inputs a b\n.outputs x y\n.names a b g\n11 1\n.names g b h\n10 1\n01 1\n.names h a i\n11 1\n.names g x\n0 1\n.names i y\n1 1\n.end\n",
	}
	for name, c := range blifCases() {
		var sb strings.Builder
		if err := c.WriteBLIF(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sb.String(); got != want[name] {
			t.Errorf("%s: wrote\n%q\nwant\n%q", name, got, want[name])
		}
	}
}

// TestWriteBLIFMintermRows checks the on-set rows of a LUT table,
// variable 0 first: AND has the single row 11, XOR the rows 10 and 01.
func TestWriteBLIFMintermRows(t *testing.T) {
	var sb strings.Builder
	if err := blifCases()["rows"].WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, table := range []string{".names a b and\n11 1\n.names", ".names a b xor\n10 1\n01 1\n.names"} {
		if !strings.Contains(text, table) {
			t.Errorf("missing table %q in\n%s", table, text)
		}
	}
}

// chainCircuit builds n LUTs over three inputs at K=3: LUT i reads LUT
// i-1 and one or two inputs, every fifth is an inverter of the one
// before it (a single-fanout LUT Repack can merge), and every LUT drives
// an output. grow, when positive, is passed to Grow first. It returns
// the circuit and every pointer AddLUT returned, in order.
func chainCircuit(n, grow int) (*Circuit, []*LUT) {
	c := New("chain", 3)
	if grow > 0 {
		c.Grow(grow)
	}
	ins := []string{"a", "b", "c"}
	for _, in := range ins {
		c.AddInput(in)
	}
	xor := truth.Var(0, 2).Xor(truth.Var(1, 2))
	maj := truth.FromFunc(3, func(m uint) bool { return m == 3 || m >= 5 })
	var made []*LUT
	prev := "a"
	for i := 0; i < n; i++ {
		name := "l" + strconv.Itoa(i)
		var l *LUT
		switch {
		case i%5 == 4:
			l = c.AddLUT(name, []string{prev}, truth.Var(0, 1).Not())
		case i%2 == 0:
			l = c.AddLUT(name, []string{prev, ins[i%3]}, xor)
		default:
			l = c.AddLUT(name, []string{prev, ins[i%3], ins[(i+1)%3]}, maj)
		}
		made = append(made, l)
		if i%5 != 3 {
			c.MarkOutput("y"+strconv.Itoa(i), name, i%3 == 0)
		}
		prev = name
	}
	return c, made
}

// LUTs are carved from chunks: the pointers AddLUT returned before a
// chunk filled are still the ones Find and LUTs hold after several more
// chunks, with the inputs and tables they were given.
func TestChunkedLUTsKeepPointers(t *testing.T) {
	c, made := chainCircuit(5000, 0)
	for i, l := range made {
		if c.LUTs[i] != l || c.Find(l.Name) != l {
			t.Fatalf("LUT %d (%s): LUTs or Find no longer hold what AddLUT returned", i, l.Name)
		}
		if i > 0 && l.Inputs[0] != made[i-1].Name {
			t.Fatalf("LUT %d reads %q first, want %q", i, l.Inputs[0], made[i-1].Name)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Input lists are carved from a shared chunk, each capped at its
// length: appending to one LUT's inputs leaves every other LUT as it
// was, and AddLUT keeps a copy of the list it was given.
func TestLUTInputAppendIsolated(t *testing.T) {
	c, _ := chainCircuit(100, 0)
	before := c.String()
	l := c.Find("l50")
	if cap(l.Inputs) != len(l.Inputs) {
		t.Fatalf("l50 inputs: len %d, cap %d", len(l.Inputs), cap(l.Inputs))
	}
	l.Inputs = append(l.Inputs, "c")
	l.Inputs = l.Inputs[:len(l.Inputs)-1]
	if got := c.String(); got != before {
		t.Fatal("appending to one LUT's inputs changed another LUT")
	}
	in := []string{"a", "b"}
	c.AddLUT("extra", in, truth.Var(0, 2).And(truth.Var(1, 2)))
	in[0] = "c"
	if got := c.Find("extra").Inputs[0]; got != "a" {
		t.Fatalf("AddLUT shares its caller's list: extra reads %q", got)
	}
}

// A circuit grown exactly, too little, too much or not at all writes
// the same bytes, before and after Repack, which removes the same LUTs
// from each.
func TestGrowIsOnlyAHint(t *testing.T) {
	const luts = 1200
	write := func(c *Circuit) string {
		var sb strings.Builder
		if err := c.WriteBLIF(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want, _ := chainCircuit(luts, 0)
	wantBLIF := write(want)
	wantRemoved, err := want.Repack()
	if err != nil {
		t.Fatal(err)
	}
	if wantRemoved == 0 {
		t.Fatal("the chain has no LUT to repack")
	}
	wantRepacked := write(want)
	for _, grow := range []int{1, luts / 2, luts, 10 * luts} {
		c, _ := chainCircuit(luts, grow)
		if got := write(c); got != wantBLIF {
			t.Fatalf("Grow(%d): BLIF differs from an ungrown circuit's", grow)
		}
		removed, err := c.Repack()
		if err != nil {
			t.Fatal(err)
		}
		if removed != wantRemoved {
			t.Fatalf("Grow(%d): Repack removed %d LUTs, want %d", grow, removed, wantRemoved)
		}
		if got := write(c); got != wantRepacked {
			t.Fatalf("Grow(%d): repacked BLIF differs from an ungrown circuit's", grow)
		}
	}
}

// blifSize, which sizes a growable destination, is the exact length of
// the output whenever every signal is written under its own name, and
// never more otherwise, save for undefined signals.
func TestBLIFSize(t *testing.T) {
	cases := blifCases()
	chain, _ := chainCircuit(500, 0)
	cases["chain"] = chain
	cases["sample"] = sampleCircuit()
	for name, c := range cases {
		var sb strings.Builder
		if err := c.WriteBLIF(&sb); err != nil {
			t.Fatal(err)
		}
		order, err := c.topoOrder()
		if err != nil {
			t.Fatal(err)
		}
		outs := append([]Output(nil), c.Outputs...)
		sort.Slice(outs, func(i, j int) bool { return outs[i].Name < outs[j].Name })
		latchQ := make(map[string]bool)
		for _, l := range c.Latches {
			latchQ[l.Q] = true
		}
		size := c.blifSize(order, outs, latchQ)
		switch {
		case name == "undefined":
		case c.plainNames(outs) && size != sb.Len():
			t.Errorf("%s: blifSize %d, wrote %d bytes", name, size, sb.Len())
		case size > sb.Len():
			t.Errorf("%s: blifSize %d exceeds the %d bytes written", name, size, sb.Len())
		}
	}
}
