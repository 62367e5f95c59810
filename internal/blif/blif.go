// Package blif reads and writes the Berkeley Logic Interchange Format
// subset used by MIS II and the MCNC-89 benchmark suite: .model,
// .inputs, .outputs, .names with {0,1,-} cube tables, and .end.
// Sequential elements (.latch) and hierarchy (.subckt) are out of scope
// for combinational technology mapping and are rejected with an error.
//
// A .names table is lowered onto the AND/OR network representation of
// internal/network: each cube becomes an AND over polarized literals and
// the cover becomes an OR of cubes; off-set covers (output plane '0')
// become an inverted reference. Constants are folded into consumers.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"chortle/internal/cerrs"
	"chortle/internal/network"
)

// maxLine is the longest physical line Read accepts, in bytes, counting
// a '\r' before the newline. A longer line is refused with
// bufio.ErrTooLong: bound and error are those of a bufio.Scanner with a
// 16 MiB buffer, which callers may already match on.
const maxLine = 1<<24 - 1

// Resolve states of a decl during lowering.
const (
	fresh   uint8 = iota // not lowered yet
	onStack              // being lowered: reaching it again is a cycle
	done                 // val holds the signal's value
)

// decl defines one signal: a .names table, or a primary input or latch
// output, which starts done. A table's input names and input planes
// are ranges of the reader's shared slabs.
type decl struct {
	output        string
	in, inEnd     int  // input names: reader.names[in:inEnd]
	cube, cubeEnd int  // input planes: reader.cubes[cube:cubeEnd]
	phase         byte // '1' (on-set) or '0' (off-set) for every cube
	state         uint8
	line          int
	val           lit
}

// latchDecl is one parsed .latch line.
type latchDecl struct {
	d, q string
	init byte
	line int
}

// frame is one table on the explicit resolve stack: next indexes the
// input name to visit after the ones already resolved.
type frame struct{ decl, next int }

// reader holds one Read: the text with its lexer position, the parsed
// declarations, and the lowering state. Every field, name and cube is
// a substring of src until lowering copies the names the network keeps.
type reader struct {
	src     string
	pos     int
	lineNo  int
	readErr error    // reported once src is exhausted
	fields  []string // the current logical line

	model   string
	inputs  []string
	outputs []string
	latches []latchDecl
	decls   []decl
	names   []string // table input names
	cubes   []string // table input planes

	nw       *network.Network
	sig      map[string]int // signal name -> decl
	ref      []int          // decl of each names entry, set as resolve reaches it
	stack    []frame
	fins     []lit
	terms    []lit
	cubeLits []lit
	real     []network.Fanin
	slab     []network.Fanin // carved into gate fanin lists
	seen     []uint32        // gate fanin stamps by 2*node ID + polarity
	gen      uint32
	gensym   int
	kept     strings.Builder // every name the network keeps
	digits   []byte
}

// Read parses a BLIF model from r and lowers it to a Boolean network.
// It reads r to the end and then tokenizes the text in place; a read
// error is reported where the text runs out, after any error in the
// text read before it.
func Read(r io.Reader) (*network.Network, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok && l.Len() > 0 {
		sb.Grow(l.Len())
	}
	_, err := io.Copy(&sb, r)
	rd := &reader{src: sb.String(), readErr: err}
	// Presize the slabs for a typical netlist, about one table per 40
	// bytes of text, so that they rarely grow. Sizing by length rather
	// than by counting lines keeps text that is mostly comments or
	// blank lines from reserving more than a few times its own size.
	n := len(rd.src) / 40
	rd.decls = make([]decl, 0, n)
	rd.cubes = make([]string, 0, 2*n)
	rd.names = make([]string, 0, 3*n)
	if err := rd.parse(); err != nil {
		return nil, err
	}
	if rd.model == "" {
		rd.model = "blif"
	}
	if len(rd.inputs) == 0 && len(rd.decls) == 0 && len(rd.latches) == 0 {
		return nil, fmt.Errorf("blif: empty model")
	}
	return rd.lower()
}

// ReadString parses a BLIF model from a string.
func ReadString(s string) (*network.Network, error) { return Read(strings.NewReader(s)) }

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// next reads the next logical line with at least one field into
// rd.fields: '#' starts a comment and a trailing backslash continues the
// line. At the end of the text it returns false, or the read error that
// cut the text short.
func (rd *reader) next() (bool, error) {
	rd.fields = rd.fields[:0]
	for rd.pos < len(rd.src) {
		line := rd.src[rd.pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			rd.pos += i + 1
		} else {
			rd.pos = len(rd.src)
		}
		if len(line) > maxLine {
			return false, bufio.ErrTooLong
		}
		rd.lineNo++
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if !rd.split(line) && len(rd.fields) > 0 {
			return true, nil
		}
	}
	if rd.readErr != nil {
		return false, rd.readErr
	}
	return len(rd.fields) > 0, nil
}

// split appends the fields of one physical line to rd.fields and reports
// whether the line ends in a continuation backslash. An ASCII line is
// split in place; any other goes through strings.Fields, whose white
// space includes Unicode separators such as U+00A0.
func (rd *reader) split(line string) (cont bool) {
	n0 := len(rd.fields)
	for i := 0; i < len(line); {
		if line[i] >= utf8.RuneSelf {
			rd.fields = rd.fields[:n0]
			line = strings.TrimSpace(line)
			if strings.HasSuffix(line, "\\") {
				cont = true
				line = strings.TrimSuffix(line, "\\")
			}
			rd.fields = append(rd.fields, strings.Fields(line)...)
			return cont
		}
		if asciiSpace[line[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && line[j] < utf8.RuneSelf && !asciiSpace[line[j]] {
			j++
		}
		rd.fields = append(rd.fields, line[i:j])
		i = j
	}
	// The backslash ends the last field; alone, it was the whole field.
	if k := len(rd.fields) - 1; k >= n0 {
		if f := rd.fields[k]; f[len(f)-1] == '\\' {
			if f = f[:len(f)-1]; f == "" {
				rd.fields = rd.fields[:k]
			} else {
				rd.fields[k] = f
			}
			return true
		}
	}
	return false
}

// parse reads every logical line into the model's declarations.
func (rd *reader) parse() error {
	cur := -1 // the .names table taking cube rows, if any
	sawEnd := false
	for {
		ok, err := rd.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		lineNo, fields := rd.lineNo, rd.fields
		if sawEnd {
			return fmt.Errorf("blif line %d: content after .end", lineNo)
		}
		tok := fields[0]
		switch {
		case tok == ".model":
			if len(fields) > 1 {
				rd.model = fields[1]
			}
			cur = -1
		case tok == ".inputs":
			rd.inputs = append(rd.inputs, fields[1:]...)
			cur = -1
		case tok == ".outputs":
			rd.outputs = append(rd.outputs, fields[1:]...)
			cur = -1
		case tok == ".names":
			if len(fields) < 2 {
				return fmt.Errorf("blif line %d: .names needs an output", lineNo)
			}
			d := decl{output: fields[len(fields)-1], in: len(rd.names), cube: len(rd.cubes), line: lineNo}
			rd.names = append(rd.names, fields[1:len(fields)-1]...)
			d.inEnd, d.cubeEnd = len(rd.names), len(rd.cubes)
			cur = len(rd.decls)
			rd.decls = append(rd.decls, d)
		case tok == ".end":
			sawEnd = true
			cur = -1
		case tok == ".latch":
			// Forms: .latch D Q [init] | .latch D Q <type> <control> [init]
			args := fields[1:]
			ld := latchDecl{line: lineNo, init: '3'}
			switch len(args) {
			case 2:
				ld.d, ld.q = args[0], args[1]
			case 3:
				ld.d, ld.q = args[0], args[1]
				ld.init = args[2][0]
			case 4:
				ld.d, ld.q = args[0], args[1]
			case 5:
				ld.d, ld.q = args[0], args[1]
				ld.init = args[4][0]
			default:
				return fmt.Errorf("blif line %d: malformed .latch", lineNo)
			}
			if ld.init != '0' && ld.init != '1' && ld.init != '2' && ld.init != '3' {
				return fmt.Errorf("blif line %d: bad latch init %q", lineNo, ld.init)
			}
			rd.latches = append(rd.latches, ld)
			cur = -1
		case tok == ".subckt" || tok == ".gate" || tok == ".mlatch":
			return fmt.Errorf("blif line %d: %s is not supported", lineNo, tok)
		case strings.HasPrefix(tok, "."):
			// Unknown dot-directives (.default_input_arrival etc.) are
			// ignored, matching common tool behaviour.
			cur = -1
		default:
			// A cube row of the current .names table.
			if cur < 0 {
				return fmt.Errorf("blif line %d: cube row outside .names", lineNo)
			}
			d := &rd.decls[cur]
			width := d.inEnd - d.in
			var inPlane, outPlane string
			if width == 0 {
				if len(fields) != 1 || len(fields[0]) != 1 {
					return fmt.Errorf("blif line %d: constant table row must be a single 0/1", lineNo)
				}
				inPlane, outPlane = "", fields[0]
			} else {
				if len(fields) != 2 {
					return fmt.Errorf("blif line %d: cube row must be <input-plane> <output>", lineNo)
				}
				inPlane, outPlane = fields[0], fields[1]
			}
			if len(inPlane) != width {
				return fmt.Errorf("blif line %d: %w: cube width %d != %d inputs", lineNo, cerrs.ErrArityMismatch, len(inPlane), width)
			}
			for _, c := range inPlane {
				if c != '0' && c != '1' && c != '-' {
					return fmt.Errorf("blif line %d: invalid cube character %q", lineNo, c)
				}
			}
			if outPlane != "0" && outPlane != "1" {
				return fmt.Errorf("blif line %d: output plane must be 0 or 1", lineNo)
			}
			if d.phase == 0 {
				d.phase = outPlane[0]
			} else if d.phase != outPlane[0] {
				return fmt.Errorf("blif line %d: mixed on-set and off-set rows in one table", lineNo)
			}
			rd.cubes = append(rd.cubes, inPlane)
			d.cubeEnd = len(rd.cubes)
		}
	}
}

// lit is a signal value during lowering: a polarized node or a constant.
type lit struct {
	node    *network.Node
	invert  bool
	isConst bool
	cval    bool
}

func (l lit) not() lit {
	if l.isConst {
		l.cval = !l.cval
		return l
	}
	l.invert = !l.invert
	return l
}

// lower builds the network from the parsed declarations, resolving
// signal references in dependency order.
func (rd *reader) lower() (*network.Network, error) {
	nw := network.New(rd.keep(rd.model))
	rd.nw = nw
	rd.sig = make(map[string]int, len(rd.decls)+len(rd.inputs)+len(rd.latches))
	for i, d := range rd.decls {
		if prev, dup := rd.sig[d.output]; dup {
			return nil, fmt.Errorf("blif line %d: %w: signal %q already defined at line %d", d.line, cerrs.ErrDuplicateName, d.output, rd.decls[prev].line)
		}
		rd.sig[d.output] = i
	}
	for _, name := range rd.inputs {
		if j, dup := rd.sig[name]; dup {
			if rd.decls[j].state == done {
				return nil, fmt.Errorf("blif: %w: input %q", cerrs.ErrDuplicateName, name)
			}
			return nil, fmt.Errorf("blif: %w: signal %q is both an input and a .names output", cerrs.ErrDuplicateName, name)
		}
		rd.define(name)
	}
	// Latch outputs are primary inputs of the combinational view.
	for _, ld := range rd.latches {
		if j, dup := rd.sig[ld.q]; dup {
			if rd.decls[j].state == done {
				return nil, fmt.Errorf("blif line %d: latch output %q collides with an input", ld.line, ld.q)
			}
			return nil, fmt.Errorf("blif line %d: latch output %q is also a .names output", ld.line, ld.q)
		}
		rd.define(ld.q)
	}

	if len(rd.outputs) == 0 && len(rd.latches) == 0 {
		return nil, fmt.Errorf("blif: model %q declares no outputs", rd.model)
	}
	rd.ref = make([]int, len(rd.names))
	for _, out := range rd.outputs {
		v, err := rd.resolve(out)
		if err != nil {
			return nil, err
		}
		if v.isConst {
			return nil, fmt.Errorf("blif: output %q is the constant %v; constant outputs cannot be mapped to logic", out, v.cval)
		}
		nw.MarkOutput(rd.keep(out), v.node, v.invert)
	}
	for _, ld := range rd.latches {
		v, err := rd.resolve(ld.d)
		if err != nil {
			return nil, err
		}
		if v.isConst {
			return nil, fmt.Errorf("blif line %d: latch %q data input is the constant %v", ld.line, ld.q, v.cval)
		}
		nw.AddLatch(rd.keep(ld.q), v.node, v.invert, ld.init)
	}
	// A name listed twice in .outputs would give the network two outputs
	// of one name, which Validate refuses. It is checked last, so any
	// other error in the model is the one reported.
	listed := make(map[string]bool, len(rd.outputs))
	for _, out := range rd.outputs {
		if listed[out] {
			return nil, fmt.Errorf("blif: %w: output %q listed twice", cerrs.ErrDuplicateName, out)
		}
		listed[out] = true
	}
	nw.Sweep()
	return nw, nil
}

// define adds a primary input node and its already resolved decl.
func (rd *reader) define(name string) {
	rd.sig[name] = len(rd.decls)
	rd.decls = append(rd.decls, decl{output: name, state: done, val: lit{node: rd.nw.AddInput(rd.keep(name))}})
}

// keep returns a copy of s cut from rd.kept. The network copies every
// name it keeps: as a substring of src, one name would keep the whole
// input text alive for as long as the network, or a circuit mapped
// from it, lives. A strings.Builder never rewrites bytes it has
// written, so the copies stay valid as it grows.
func (rd *reader) keep(s string) string {
	start := rd.kept.Len()
	rd.kept.WriteString(s)
	return rd.kept.String()[start:]
}

// resolve returns the value of signal name, first lowering every table
// in its fanin cone that is not done yet. The walk is depth first, in
// input order, on an explicit stack, so no input is deep enough to
// overflow the goroutine stack.
func (rd *reader) resolve(name string) (lit, error) {
	j, ok := rd.sig[name]
	if !ok {
		return lit{}, fmt.Errorf("blif: undefined signal %q", name)
	}
	if d := &rd.decls[j]; d.state == fresh {
		d.state = onStack
		rd.stack = append(rd.stack[:0], frame{j, d.in})
	}
	for len(rd.stack) > 0 {
		top := &rd.stack[len(rd.stack)-1]
		d := &rd.decls[top.decl]
		if top.next == d.inEnd {
			d.val, d.state = rd.table(d), done
			rd.stack = rd.stack[:len(rd.stack)-1]
			continue
		}
		in := rd.names[top.next]
		k, ok := rd.sig[in]
		if !ok {
			return lit{}, fmt.Errorf("blif: undefined signal %q", in)
		}
		rd.ref[top.next] = k
		top.next++
		switch e := &rd.decls[k]; e.state {
		case onStack:
			return lit{}, fmt.Errorf("blif line %d: %w through %q", e.line, cerrs.ErrCycle, in)
		case fresh:
			e.state = onStack
			rd.stack = append(rd.stack, frame{k, e.in})
		}
	}
	return rd.decls[j].val, nil
}

// table lowers a .names table whose inputs are all done: each cube
// becomes an AND over polarized literals and the cover an OR of cubes;
// an off-set cover inverts the result.
func (rd *reader) table(d *decl) lit {
	fins := rd.fins[:0]
	for _, k := range rd.ref[d.in:d.inEnd] {
		fins = append(fins, rd.decls[k].val)
	}
	rd.fins = fins
	v := lit{isConst: true, cval: false} // empty cover: constant 0
	if d.cube < d.cubeEnd {
		cubeLits := rd.cubeLits[:0]
		for _, cube := range rd.cubes[d.cube:d.cubeEnd] {
			terms := rd.terms[:0]
			for i := 0; i < len(cube); i++ {
				switch cube[i] {
				case '1':
					terms = append(terms, fins[i])
				case '0':
					terms = append(terms, fins[i].not())
				}
			}
			rd.terms = terms
			cubeLits = append(cubeLits, rd.gate(d.output, network.OpAnd, terms))
		}
		rd.cubeLits = cubeLits
		v = rd.gate(d.output, network.OpOr, cubeLits)
	}
	if d.phase == '0' {
		v = v.not()
	}
	return v
}

// gate creates op(fanins), folding constants and the arity 0 and 1
// degeneracies and dropping repeated literals. identity is the op's
// neutral element.
func (rd *reader) gate(base string, op network.Op, fanins []lit) lit {
	identity := op == network.OpAnd // AND identity = 1, OR identity = 0
	if need := 2 * len(rd.nw.Nodes); len(rd.seen) < need {
		rd.seen = append(rd.seen, make([]uint32, need)...)
	}
	rd.gen++
	real := rd.real[:0]
	for _, f := range fanins {
		if f.isConst {
			if f.cval == identity {
				continue // neutral element
			}
			return lit{isConst: true, cval: !identity} // absorbing element
		}
		k := 2 * f.node.ID
		if f.invert {
			k++
		}
		if rd.seen[k] == rd.gen {
			continue
		}
		rd.seen[k] = rd.gen
		real = append(real, network.Fanin{Node: f.node, Invert: f.invert})
	}
	rd.real = real
	switch len(real) {
	case 0:
		return lit{isConst: true, cval: identity}
	case 1:
		return lit{node: real[0].Node, invert: real[0].Invert}
	}
	// Fanin lists are carved from a shared slab, each capped at its
	// length so that an append to one reallocates instead of writing
	// over the next.
	if cap(rd.slab)-len(rd.slab) < len(real) {
		rd.slab = make([]network.Fanin, 0, max(len(real), 1024))
	}
	i := len(rd.slab)
	rd.slab = append(rd.slab, real...)
	return lit{node: rd.nw.AddGate(rd.fresh(base), op, rd.slab[i:len(rd.slab):len(rd.slab)]...)}
}

// fresh returns an unused node name base$N, with N counting up across
// the model, cut from rd.kept like every kept name.
func (rd *reader) fresh(base string) string {
	for {
		rd.gensym++
		start := rd.kept.Len()
		rd.kept.WriteString(base)
		rd.kept.WriteByte('$')
		rd.digits = strconv.AppendInt(rd.digits[:0], int64(rd.gensym), 10)
		rd.kept.Write(rd.digits)
		if name := rd.kept.String()[start:]; rd.nw.Find(name) == nil {
			return name
		}
	}
}

// Write emits the network as BLIF. Gates become on-set .names tables
// (an AND is one cube; an OR is one single-literal cube per fanin);
// inverted outputs get an explicit inverter table so the emitted model
// is self-contained.
func Write(w io.Writer, nw *network.Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nw.Name)

	// Latch outputs are inputs of the combinational view but are driven
	// by .latch lines in the file, not by .inputs.
	latchQ := make(map[string]bool, len(nw.Latches))
	for _, l := range nw.Latches {
		latchQ[l.Q] = true
	}
	fmt.Fprint(bw, ".inputs")
	for _, in := range nw.Inputs {
		if latchQ[in.Name] {
			continue
		}
		fmt.Fprintf(bw, " %s", in.Name)
	}
	fmt.Fprintln(bw)

	outs := nw.SortedOutputs()
	fmt.Fprint(bw, ".outputs")
	for _, o := range outs {
		fmt.Fprintf(bw, " %s", o.Name)
	}
	fmt.Fprintln(bw)

	order, err := nw.TopoSort()
	if err != nil {
		return err
	}
	// Internal gate names may collide with declared output names (e.g.
	// an inverted output whose driver shares its name would otherwise
	// emit a self-referential table). Gates whose name clashes with an
	// output or input name are emitted under a mangled alias, and every
	// output gets an explicit buffer/inverter table unless it is a
	// direct non-inverted reference that already carries the right name.
	reserved := make(map[string]bool, len(nw.Inputs)+len(outs))
	for _, in := range nw.Inputs {
		reserved[in.Name] = true
	}
	for _, o := range outs {
		reserved[o.Name] = true
	}
	emitName := make(map[*network.Node]string, len(nw.Nodes))
	for _, in := range nw.Inputs {
		emitName[in] = in.Name
	}
	for _, n := range order {
		if n.IsInput() {
			continue
		}
		name := n.Name
		for reserved[name] {
			name += "$int"
		}
		reserved[name] = true
		emitName[n] = name
	}
	for _, n := range order {
		if n.IsInput() {
			continue
		}
		fmt.Fprint(bw, ".names")
		for _, f := range n.Fanins {
			fmt.Fprintf(bw, " %s", emitName[f.Node])
		}
		fmt.Fprintf(bw, " %s\n", emitName[n])
		switch n.Op {
		case network.OpAnd:
			for _, f := range n.Fanins {
				if f.Invert {
					fmt.Fprint(bw, "0")
				} else {
					fmt.Fprint(bw, "1")
				}
			}
			fmt.Fprintln(bw, " 1")
		case network.OpOr:
			for i, f := range n.Fanins {
				for j := range n.Fanins {
					switch {
					case j != i:
						fmt.Fprint(bw, "-")
					case f.Invert:
						fmt.Fprint(bw, "0")
					default:
						fmt.Fprint(bw, "1")
					}
				}
				fmt.Fprintln(bw, " 1")
			}
		}
	}
	for _, o := range outs {
		if emitName[o.Node] == o.Name && !o.Invert {
			continue // the signal already carries the output name
		}
		fmt.Fprintf(bw, ".names %s %s\n", emitName[o.Node], o.Name)
		if o.Invert {
			fmt.Fprintln(bw, "0 1")
		} else {
			fmt.Fprintln(bw, "1 1")
		}
	}
	for _, l := range nw.Latches {
		dname := emitName[l.D]
		if l.DInv {
			inv := l.Q + "$D"
			for reserved[inv] {
				inv += "$"
			}
			reserved[inv] = true
			fmt.Fprintf(bw, ".names %s %s\n0 1\n", dname, inv)
			dname = inv
		}
		fmt.Fprintf(bw, ".latch %s %s %c\n", dname, l.Q, l.Init)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// WriteString renders the network as a BLIF string.
func WriteString(nw *network.Network) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, nw); err != nil {
		return "", err
	}
	return sb.String(), nil
}
