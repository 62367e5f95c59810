package blif

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"chortle/internal/cerrs"
	"chortle/internal/network"
)

const sampleBLIF = `
# a small two-output model
.model sample
.inputs a b c d e
.outputs y z
.names a b t1
11 1
.names c d t2
0- 1
-1 1
.names t1 t2 y
1- 1
-1 1
.names t2 e z
11 0
.end
`

func TestReadSample(t *testing.T) {
	nw, err := ReadString(sampleBLIF)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.Name != "sample" {
		t.Fatalf("model name = %q", nw.Name)
	}
	if len(nw.Inputs) != 5 || len(nw.Outputs) != 2 {
		t.Fatalf("IO = %d/%d", len(nw.Inputs), len(nw.Outputs))
	}
	// Functional check: y = ab + (!c + d), z = !((!c+d) & e).
	assign := exhaustive(nw)
	got, err := nw.Simulate(assign)
	if err != nil {
		t.Fatal(err)
	}
	for m := uint(0); m < 32; m++ {
		a, b := bit(m, 0), bit(m, 1)
		c, d, e := bit(m, 2), bit(m, 3), bit(m, 4)
		t2 := !c || d
		wantY := (a && b) || t2
		wantZ := !(t2 && e)
		if bit(uint(got["y"]), int(m)) != wantY {
			t.Fatalf("y wrong at %05b", m)
		}
		if bit(uint(got["z"]), int(m)) != wantZ {
			t.Fatalf("z wrong at %05b", m)
		}
	}
}

func bit(w uint, i int) bool { return w>>uint(i)&1 == 1 }

// exhaustive assigns the first PIs their exhaustive 2^n pattern columns
// (n = number of inputs, must be <= 6 for a single word).
func exhaustive(nw *network.Network) map[string]uint64 {
	assign := map[string]uint64{}
	n := len(nw.Inputs)
	for i, in := range nw.Inputs {
		var w uint64
		for m := uint(0); m < 1<<uint(n); m++ {
			if m>>uint(i)&1 == 1 {
				w |= 1 << m
			}
		}
		assign[in.Name] = w
	}
	return assign
}

func TestRoundTrip(t *testing.T) {
	nw, err := ReadString(sampleBLIF)
	if err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(nw)
	if err != nil {
		t.Fatal(err)
	}
	nw2, err := ReadString(text)
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, text)
	}
	assign := exhaustive(nw)
	got1, _ := nw.Simulate(assign)
	got2, _ := nw2.Simulate(assign)
	mask := uint64(1)<<32 - 1
	for _, o := range nw.Outputs {
		if got1[o.Name]&mask != got2[o.Name]&mask {
			t.Fatalf("output %q differs after round trip\n%s", o.Name, text)
		}
	}
}

func TestContinuationAndComments(t *testing.T) {
	src := `.model m # trailing comment
.inputs a b \
c
.outputs y
.names a b c y  # three-input AND
111 1
.end`
	nw, err := ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Inputs) != 3 {
		t.Fatalf("continuation lost inputs: %d", len(nw.Inputs))
	}
	got, _ := nw.Simulate(map[string]uint64{"a": ^uint64(0), "b": ^uint64(0), "c": 1})
	if got["y"] != 1 {
		t.Fatalf("y = %x", got["y"])
	}
}

func TestOffsetCover(t *testing.T) {
	// y defined by its off-set: y=0 iff a=1,b=1  =>  y = NAND(a,b).
	src := `.model m
.inputs a b
.outputs y
.names a b y
11 0
.end`
	nw, err := ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nw.Simulate(exhaustive(nw))
	if got["y"]&0xF != 0b0111 {
		t.Fatalf("NAND truth = %04b", got["y"]&0xF)
	}
}

func TestConstantFolding(t *testing.T) {
	// t is constant 1; y = AND(t, a) must fold to y = a.
	src := `.model m
.inputs a
.outputs y
.names t
1
.names t a y
11 1
.end`
	nw, err := ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nw.Simulate(map[string]uint64{"a": 0b10})
	if got["y"]&0b11 != 0b10 {
		t.Fatalf("y = %b, want a", got["y"]&0b11)
	}
	if s := nw.Stats(); s.Gates != 0 {
		t.Fatalf("constant not folded, %d gates remain", s.Gates)
	}
}

func TestConstantOutputRejected(t *testing.T) {
	src := `.model m
.inputs a
.outputs y
.names y
1
.end`
	if _, err := ReadString(src); err == nil {
		t.Fatal("constant output accepted")
	}
}

// errReadFailed is what failingReader returns once its text runs out.
var errReadFailed = errors.New("read failed")

// failingReader yields its text and then fails instead of reaching EOF.
type failingReader struct{ src string }

func (f *failingReader) Read(p []byte) (int, error) {
	if f.src == "" {
		return 0, errReadFailed
	}
	n := copy(p, f.src)
	f.src = f.src[n:]
	return n, nil
}

// TestErrorCases pins every refusal of the reader: the exact message,
// line numbers included, and the sentinel errors.Is must find (nil when
// the refusal has none). Several cases probe the tokenizer: CRLF line
// endings, a comment ending in a backslash (not a continuation), a
// continued .names line, Unicode separators that strings.Fields splits
// on, the 16 MiB physical-line bound, and a reader that fails partway.
// A reader failure is reported after the text read before it, so a
// malformed line in that text wins.
func TestErrorCases(t *testing.T) {
	const limit = 1 << 24 // longest physical line, in bytes, is limit-1
	long := strings.Repeat("a", limit)
	cases := []struct {
		name string
		src  string
		fail bool // serve src through a failingReader
		want string
		is   error
	}{
		{name: "badlatch", src: ".model m\n.inputs a\n.outputs y\n.latch a\n.end",
			want: "blif line 4: malformed .latch"},
		{name: "latchinit", src: ".model m\n.inputs a\n.outputs y\n.latch a q 7\n.names q y\n1 1\n.end",
			want: "blif line 4: bad latch init '7'"},
		{name: "latchclash", src: ".model m\n.inputs a q\n.outputs y\n.latch a q 0\n.names q y\n1 1\n.end",
			want: `blif line 4: latch output "q" collides with an input`},
		{name: "latchgate", src: ".model m\n.inputs a\n.outputs q\n.names a q\n1 1\n.latch a q 0\n.end",
			want: `blif line 6: latch output "q" is also a .names output`},
		{name: "subckt", src: ".model m\n.inputs a\n.outputs y\n.subckt foo a=a y=y\n.end",
			want: "blif line 4: .subckt is not supported"},
		{name: "cycle", src: ".model m\n.inputs a\n.outputs y\n.names y a t\n11 1\n.names t y\n1 1\n.end",
			want: `blif line 6: combinational cycle through "y"`, is: cerrs.ErrCycle},
		{name: "undefined", src: ".model m\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end",
			want: `blif: undefined signal "q"`},
		{name: "badcube", src: ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end",
			want: "blif line 5: invalid cube character '2'"},
		{name: "widthcube", src: ".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n.end",
			want: "blif line 5: arity mismatch: cube width 2 != 1 inputs", is: cerrs.ErrArityMismatch},
		{name: "mixedphase", src: ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end",
			want: "blif line 6: mixed on-set and off-set rows in one table"},
		{name: "strayrow", src: ".model m\n.inputs a\n.outputs y\n11 1\n.end",
			want: "blif line 4: cube row outside .names"},
		{name: "afterend", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n.names a z\n1 1",
			want: "blif line 7: content after .end"},
		{name: "redefinition", src: ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end",
			want: `blif line 6: duplicate name: signal "y" already defined at line 4`, is: cerrs.ErrDuplicateName},
		{name: "noout", src: ".model m\n.inputs a b\n.names a b t\n11 1\n.end",
			want: `blif: model "m" declares no outputs`},
		{name: "inputgate", src: ".model m\n.inputs a\n.outputs y\n.names a\n1\n.names a y\n1 1\n.end",
			want: `blif: duplicate name: signal "a" is both an input and a .names output`, is: cerrs.ErrDuplicateName},
		{name: "empty", src: "# only a comment\n\n",
			want: "blif: empty model"},
		{name: "constout", src: ".model m\n.inputs a\n.outputs y\n.names y\n1\n.end",
			want: `blif: output "y" is the constant true; constant outputs cannot be mapped to logic`},
		{name: "constlatch", src: ".model m\n.inputs a\n.outputs y\n.latch d q 0\n.names d\n.names a y\n1 1\n.end",
			want: `blif line 4: latch "q" data input is the constant false`},
		{name: "latchundef", src: ".model m\n.inputs a\n.outputs y\n.latch d q 0\n.names a y\n1 1\n.end",
			want: `blif: undefined signal "d"`},
		{name: "namesbare", src: ".model m\n.inputs a\n.outputs y\n.names\n.end",
			want: "blif line 4: .names needs an output"},
		{name: "constrow", src: ".model m\n.inputs a\n.outputs y\n.names c\n1 1\n.names a c y\n11 1\n.end",
			want: "blif line 5: constant table row must be a single 0/1"},
		{name: "rowfields", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1 1\n.end",
			want: "blif line 5: cube row must be <input-plane> <output>"},
		{name: "outplane", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 2\n.end",
			want: "blif line 5: output plane must be 0 or 1"},
		{name: "unicodecube", src: ".model m\n.inputs a b\n.outputs y\n.names a b y\né 1\n.end",
			want: "blif line 5: invalid cube character 'é'"},
		{name: "dupinput", src: ".model m\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end",
			want: `blif: duplicate name: input "a"`, is: cerrs.ErrDuplicateName},
		{name: "gateinput", src: ".model m\n.inputs a y\n.outputs y\n.names a y\n1 1\n.end",
			want: `blif: duplicate name: signal "y" is both an input and a .names output`, is: cerrs.ErrDuplicateName},
		{name: "crlf", src: ".model m\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n111 1\r\n.end\r\n",
			want: "blif line 5: arity mismatch: cube width 3 != 2 inputs", is: cerrs.ErrArityMismatch},
		{name: "crlfcont", src: ".model m\r\n.inputs a \\\r\nb\r\n.outputs y\r\n.names a b y\r\n2- 1\r\n.end\r\n",
			want: "blif line 6: invalid cube character '2'"},
		{name: "commentbackslash", src: ".model m\n.inputs a # not continued \\\nb\n.outputs y\n.end\n",
			want: "blif line 3: cube row outside .names"},
		{name: "namescont", src: ".model m\n.inputs a b\n.outputs y\n.names a \\\nb y\n1 1\n.end\n",
			want: "blif line 6: arity mismatch: cube width 1 != 2 inputs", is: cerrs.ErrArityMismatch},
		{name: "nbsprow", src: ".model m\n.inputs a b\n.outputs y\n.names a b y\n1\u00a01 1\n.end\n",
			want: "blif line 5: cube row must be <input-plane> <output>"},
		{name: "nbspname", src: ".model m\n.inputs a\u00a0b\n.outputs y\n.names a\u00a0b y\n111 1\n.end\n",
			want: "blif line 5: arity mismatch: cube width 3 != 2 inputs", is: cerrs.ErrArityMismatch},
		{name: "nelcycle", src: ".model m\n.inputs a\n.outputs y\n.names\u00a0y a\u00a0t\n11\u00a01\n.names t\u0085y\n1 1\n.end\n",
			want: `blif line 6: combinational cycle through "y"`, is: cerrs.ErrCycle},
		{name: "atlimit", src: ".model m\n.inputs a\n#" + long[:limit-2] + "\n.outputs y\n.names a y\n2 1\n",
			want: "blif line 6: invalid cube character '2'"},
		{name: "atlimitcrlf", src: ".model m\n.inputs a\n#" + long[:limit-3] + "\r\n.outputs y\n.names a y\n2 1\n",
			want: "blif line 6: invalid cube character '2'"},
		{name: "atlimitlast", src: ".model m\n.inputs a\n.names a t\n1 1\n#" + long[:limit-2],
			want: `blif: model "m" declares no outputs`},
		{name: "toolong", src: ".model m\n.inputs a\n#" + long + "\n.outputs y\n.end\n",
			want: bufio.ErrTooLong.Error(), is: bufio.ErrTooLong},
		{name: "toolongcrlf", src: ".model m\n.inputs a\n#" + long[:limit-2] + "\r\n.outputs y\n.names a y\n2 1\n",
			want: bufio.ErrTooLong.Error(), is: bufio.ErrTooLong},
		{name: "toolonglast", src: ".model m\n.inputs a\n" + long,
			want: bufio.ErrTooLong.Error(), is: bufio.ErrTooLong},
		{name: "toolonglastcrlf", src: ".model m\n.inputs a\n.names a t\n1 1\n#" + long[:limit-2] + "\r",
			want: bufio.ErrTooLong.Error(), is: bufio.ErrTooLong},
		{name: "toolongafterend", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\nx\n#" + long,
			want: "blif line 7: content after .end"},
		{name: "readfail", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n", fail: true,
			want: "read failed", is: errReadFailed},
		{name: "readfailpartial", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1", fail: true,
			want: "blif line 5: cube row must be <input-plane> <output>"},
		{name: "readfailbadrow", src: ".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n", fail: true,
			want: "blif line 5: arity mismatch: cube width 2 != 1 inputs", is: cerrs.ErrArityMismatch},
		{name: "readfailafterend", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n", fail: true,
			want: "read failed", is: errReadFailed},
		{name: "readfailcont", src: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end \\\n", fail: true,
			want: "read failed", is: errReadFailed},
	}
	sentinels := []error{cerrs.ErrCycle, cerrs.ErrDuplicateName, cerrs.ErrArityMismatch, bufio.ErrTooLong, errReadFailed}
	for _, c := range cases {
		var r io.Reader = strings.NewReader(c.src)
		if c.fail {
			r = &failingReader{src: c.src}
		}
		_, err := Read(r)
		if err == nil {
			t.Errorf("%s: error expected, got none", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
		for _, s := range sentinels {
			if got := errors.Is(err, s); got != (s == c.is) {
				t.Errorf("%s: errors.Is(err, %q) = %v", c.name, s, got)
			}
		}
	}
}

func TestWriteNamesCollision(t *testing.T) {
	// An inverted output whose driving gate has the output's own name
	// must not produce a self-referential table.
	nw := network.New("m")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	g := nw.AddGate("y", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	nw.MarkOutput("y", g, true)
	text, err := WriteString(nw)
	if err != nil {
		t.Fatal(err)
	}
	nw2, err := ReadString(text)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, text)
	}
	got, _ := nw2.Simulate(map[string]uint64{"a": 0b1010, "b": 0b1100})
	if got["y"]&0xF != 0b0111 {
		t.Fatalf("collision handling broke function: y=%04b\n%s", got["y"]&0xF, text)
	}
}

func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nw := randomNetwork(rng, trial)
		text, err := WriteString(nw)
		if err != nil {
			t.Fatal(err)
		}
		nw2, err := ReadString(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		assign := map[string]uint64{}
		for _, in := range nw.Inputs {
			assign[in.Name] = rng.Uint64()
		}
		got1, err := nw.Simulate(assign)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := nw2.Simulate(assign)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range nw.Outputs {
			if got1[o.Name] != got2[o.Name] {
				t.Fatalf("trial %d: output %q differs\n%s", trial, o.Name, text)
			}
		}
	}
}

func randomNetwork(rng *rand.Rand, id int) *network.Network {
	nw := network.New("rand")
	var pool []*network.Node
	nIn := 2 + rng.Intn(5)
	for i := 0; i < nIn; i++ {
		pool = append(pool, nw.AddInput("in"+string(rune('a'+i))))
	}
	nGates := 3 + rng.Intn(12)
	for i := 0; i < nGates; i++ {
		op := network.OpAnd
		if rng.Intn(2) == 1 {
			op = network.OpOr
		}
		k := 2 + rng.Intn(3)
		fins := make([]network.Fanin, 0, k)
		for j := 0; j < k; j++ {
			fins = append(fins, network.Fanin{Node: pool[rng.Intn(len(pool))], Invert: rng.Intn(2) == 1})
		}
		pool = append(pool, nw.AddGate("g"+string(rune('0'+i%10))+string(rune('a'+i/10)), op, fins...))
	}
	nw.MarkOutput("out0", pool[len(pool)-1], rng.Intn(2) == 1)
	nw.MarkOutput("out1", pool[len(pool)-2], rng.Intn(2) == 1)
	nw.Sweep()
	return nw
}

// sequentialBLIF is a 2-bit counter with enable: a small FSM exercising
// .latch support end to end.
const sequentialBLIF = `
.model counter2
.inputs en
.outputs q0out q1out
.latch d0 q0 re clk 0
.latch d1 q1 0
.names en q0 d0
10 1
01 1
.names en q0 carry
11 1
.names carry q1 d1
10 1
01 1
.names q0 q0out
1 1
.names q1 q1out
1 1
.end`

func TestSequentialRead(t *testing.T) {
	nw, err := ReadString(sequentialBLIF)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(nw.Latches) != 2 {
		t.Fatalf("latches = %d, want 2", len(nw.Latches))
	}
	if len(nw.Inputs) != 3 {
		t.Fatalf("combinational inputs = %d, want 3 (en, q0, q1)", len(nw.Inputs))
	}
	if nw.Latches[0].Init != '0' || nw.Latches[1].Init != '0' {
		t.Fatalf("latch init values lost: %+v", nw.Latches)
	}
	// Next-state function: d0 = en XOR q0; d1 = q1 XOR (en AND q0).
	got, err := nw.Simulate(map[string]uint64{"en": 0b1010, "q0": 0b1100, "q1": 0b1111})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint(0); i < 4; i++ {
		en, q0, q1 := 0b1010>>i&1 == 1, 0b1100>>i&1 == 1, true
		wantD0 := en != q0
		wantD1 := q1 != (en && q0)
		if got["$latch$q0"]>>i&1 == 1 != wantD0 {
			t.Fatalf("d0 wrong at pattern %d", i)
		}
		if got["$latch$q1"]>>i&1 == 1 != wantD1 {
			t.Fatalf("d1 wrong at pattern %d", i)
		}
	}
}

func TestSequentialRoundTrip(t *testing.T) {
	nw, err := ReadString(sequentialBLIF)
	if err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(nw)
	if err != nil {
		t.Fatal(err)
	}
	nw2, err := ReadString(text)
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, text)
	}
	if len(nw2.Latches) != 2 {
		t.Fatalf("latches lost in round trip:\n%s", text)
	}
	assign := map[string]uint64{"en": 0xF0F0, "q0": 0xFF00, "q1": 0xAAAA}
	a, _ := nw.Simulate(assign)
	b, _ := nw2.Simulate(assign)
	for _, key := range []string{"q0out", "q1out", "$latch$q0", "$latch$q1"} {
		if a[key] != b[key] {
			t.Fatalf("%s differs after round trip\n%s", key, text)
		}
	}
}

// TestDuplicateOutputRefused reads an output listed twice, which would
// give the network two outputs of one name. The reader refuses it only
// after every other check, so another error in the model still wins.
func TestDuplicateOutputRefused(t *testing.T) {
	_, err := ReadString(".inputs a\n.outputs y y\n.names a y\n0 0")
	if want := `blif: duplicate name: output "y" listed twice`; err == nil || err.Error() != want || !errors.Is(err, cerrs.ErrDuplicateName) {
		t.Errorf("error %v, want %q wrapping ErrDuplicateName", err, want)
	}
	_, err = ReadString(".inputs a\n.outputs y y\n.names a q y\n11 1")
	if want := `blif: undefined signal "q"`; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

// TestTokenizerEquivalents checks inputs that only differ in layout
// from a plain model: each must read to the same network.
func TestTokenizerEquivalents(t *testing.T) {
	const plain = ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n--0 1\n.end\n"
	want, err := ReadString(plain)
	if err != nil {
		t.Fatal(err)
	}
	wantText, err := WriteString(want)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]string{
		"crlf":             strings.ReplaceAll(plain, "\n", "\r\n"),
		"commentbackslash": ".model m # a comment ending in a backslash \\\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n--0 1\n.end\n",
		"namescont":        ".model m\n.inputs a b c\n.outputs y\n.names a \\\n b \\\nc y\n11- 1\n--0 1\n.end\n",
		"nbsp":             ".model\u00a0m\n.inputs a\u00a0b\u00a0c\n.outputs y\n.names a b\u00a0c y\n11-\u00a01\n--0 1\n.end\n",
		"tabs":             ".model\tm\n\t.inputs a\tb c \n.outputs\vy\n.names a b c y\f\n11- 1\n--0 1\n.end",
		"nonasciicomment":  "# é\n.model m\n.inputs a b c # ü\n.outputs y\n.names a b c y\n11- 1\n--0 1\n.end\n",
	}
	for name, src := range variants {
		nw, err := ReadString(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		text, err := WriteString(nw)
		if err != nil {
			t.Fatal(err)
		}
		if text != wantText {
			t.Errorf("%s: read as\n%s\nwant\n%s", name, text, wantText)
		}
	}
}

// TestDeepChains reads 200,000-deep chains of buffer tables and of
// 2-input AND tables under a 32 MiB goroutine stack, and validates the
// AND chain, as every map does first. Lowering, Sweep and TopoSort walk
// the chain with explicit stacks; recursion once per signal would
// overflow, which kills the process rather than returning an error.
func TestDeepChains(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	const depth = 200000
	chain := func(and bool) string {
		var sb strings.Builder
		sb.WriteString(".model deep\n.inputs a b\n.outputs y\n")
		prev := "a"
		for i := 1; i <= depth; i++ {
			out := "y"
			if i < depth {
				out = "x" + strconv.Itoa(i)
			}
			if and {
				fmt.Fprintf(&sb, ".names %s b %s\n11 1\n", prev, out)
			} else {
				fmt.Fprintf(&sb, ".names %s %s\n1 1\n", prev, out)
			}
			prev = out
		}
		sb.WriteString(".end\n")
		return sb.String()
	}

	nw, err := ReadString(chain(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Nodes) != 2 || nw.Outputs[0].Node != nw.Find("a") || nw.Outputs[0].Invert {
		t.Fatalf("buffer chain: %d nodes, output %+v; want y = a", len(nw.Nodes), nw.Outputs[0])
	}

	nw, err = ReadString(chain(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Nodes) != 2+depth {
		t.Fatalf("AND chain: %d nodes, want %d", len(nw.Nodes), 2+depth)
	}
	n := nw.Outputs[0].Node
	for i := 0; i < depth; i++ {
		if n.Op != network.OpAnd || len(n.Fanins) != 2 || n.Fanins[1].Node != nw.Find("b") {
			t.Fatalf("AND chain: gate %d from the output is %v over %d fanins", i, n.Op, len(n.Fanins))
		}
		n = n.Fanins[0].Node
	}
	if n != nw.Find("a") {
		t.Fatalf("AND chain ends at %q, want a", n.Name)
	}
	if err := nw.Validate(); err != nil {
		t.Fatalf("AND chain: %v", err)
	}
}

// readPadded reads a small model carrying 8 MiB of comment.
func readPadded(t *testing.T) *network.Network {
	src := ".model m\n.inputs a b\n.outputs y\n#" + strings.Repeat("x", 8<<20) + "\n.names a b y\n11 1\n.latch y q 0\n.end\n"
	nw, err := ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestNamesDoNotPinInput keeps only the network of a padded model: the
// reader tokenizes the text in place, so a name the network kept as a
// substring would hold all 8 MiB of it alive.
func TestNamesDoNotPinInput(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nw := readPadded(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("heap grew by %d bytes after reading; the network pins its input text", grew)
	}
	runtime.KeepAlive(nw)
}
