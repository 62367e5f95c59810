package lut

import (
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
