// Package lut represents circuits of K-input lookup tables — the output
// of technology mapping. Each LUT carries its truth table, so a mapped
// circuit is fully specified and can be simulated, validated and
// exported to BLIF. Per the paper's cost model, area is simply the
// number of LUTs; output inverters are free (absorbed by the consuming
// block or IO), so circuit outputs carry a polarity flag.
//
// LUTs and their input lists are carved from chunks (internal/slab),
// not allocated one by one: a *LUT stays valid for as long as it is
// referenced, and each input list is capped at its length, so an append
// to one reallocates instead of writing over the next. A mapper that
// knows how many LUTs it will add says so with Grow.
package lut

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"chortle/internal/slab"
	"chortle/internal/truth"
)

// LUT is one K-input lookup table instance. Inputs name primary inputs
// or other LUTs; Table is the programmed function over those inputs in
// order (variable i of the table = Inputs[i]).
type LUT struct {
	Name   string
	Inputs []string
	Table  truth.Table

	id int // position in Circuit.LUTs, kept by AddLUT and removeLUT
}

// Output designates a circuit output signal, optionally inverted.
type Output struct {
	Name   string
	Signal string
	Invert bool
}

// Latch is a sequential element riding through the combinational
// mapping: Q is a circuit input, D the (possibly inverted) signal that
// feeds it at the next clock.
type Latch struct {
	Q    string
	D    string
	DInv bool
	Init byte
}

// Circuit is a network of K-input LUTs.
type Circuit struct {
	Name    string
	K       int
	Inputs  []string
	LUTs    []*LUT
	Outputs []Output
	Latches []Latch

	byName map[string]*LUT
	// prov holds per-LUT provenance records when the mapper ran with
	// provenance recording on (see provenance.go). Nil otherwise.
	prov map[string]*Provenance

	luts slab.Slab[LUT]    // the chunks new LUTs are carved from
	pins slab.Slab[string] // the chunks their input lists are copied into
}

// New returns an empty LUT circuit for K-input lookup tables.
func New(name string, k int) *Circuit {
	if k < 1 || k > truth.MaxVars {
		panic(fmt.Sprintf("lut: K=%d out of range [1,%d]", k, truth.MaxVars))
	}
	return &Circuit{Name: name, K: k}
}

// Grow makes room for n more LUTs: in LUTs, in the chunk new LUTs are
// carved from and, while the circuit has no LUT yet, in the name index.
// Like bytes.Buffer.Grow it is a capacity hint; a circuit grown too
// little or too much holds the same LUTs and writes the same bytes.
func (c *Circuit) Grow(n int) {
	c.LUTs = slices.Grow(c.LUTs, n)
	c.luts.Grow(n)
	if len(c.byName) == 0 {
		c.byName = make(map[string]*LUT, n)
	}
}

// AddInput declares a primary input signal.
func (c *Circuit) AddInput(name string) {
	c.Inputs = append(c.Inputs, name)
}

// AddLUT appends a lookup table; the name must be unique and the input
// count must not exceed K. The LUT holds a copy of inputs.
func (c *Circuit) AddLUT(name string, inputs []string, table truth.Table) *LUT {
	if len(inputs) > c.K {
		panic(fmt.Sprintf("lut: %q has %d inputs, K=%d", name, len(inputs), c.K))
	}
	if table.N != len(inputs) {
		panic(fmt.Sprintf("lut: %q table arity %d != %d inputs", name, table.N, len(inputs)))
	}
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("lut: duplicate LUT name %q", name))
	}
	if c.byName == nil {
		c.byName = make(map[string]*LUT)
	}
	l := c.luts.New()
	*l = LUT{Name: name, Inputs: c.pins.Copy(inputs), Table: table, id: len(c.LUTs)}
	c.LUTs = append(c.LUTs, l)
	c.byName[name] = l
	return l
}

// MarkOutput designates signal (a PI or LUT name), optionally inverted,
// as the circuit output called name.
func (c *Circuit) MarkOutput(name, signal string, invert bool) {
	c.Outputs = append(c.Outputs, Output{Name: name, Signal: signal, Invert: invert})
}

// AddLatch registers a latch: q must be a circuit input, d a signal.
func (c *Circuit) AddLatch(q, d string, dInv bool, init byte) {
	c.Latches = append(c.Latches, Latch{Q: q, D: d, DInv: dInv, Init: init})
}

// Find returns the LUT with the given name, or nil.
func (c *Circuit) Find(name string) *LUT { return c.byName[name] }

// Count returns the number of LUTs, the paper's area metric.
func (c *Circuit) Count() int { return len(c.LUTs) }

// indexed reports whether the name index holds exactly the LUTs, each
// under its own name and at its recorded position in c.LUTs. LUT names
// are then distinct, and every LUT's inputs resolve by position.
func (c *Circuit) indexed() bool {
	if len(c.byName) != len(c.LUTs) {
		return false
	}
	for i, l := range c.LUTs {
		if l.id != i || c.byName[l.Name] != l {
			return false
		}
	}
	return true
}

// Validate checks the circuit structure: unique names, defined input
// signals, fanin bounds, table arities and acyclicity. When the name
// index holds exactly the LUTs and no LUT is named like an input, the
// names are distinct by construction: each LUT input is then resolved
// once, through the index, and no set of LUT names is built. Any other
// circuit, which only hand editing makes, is checked against such a set
// as well, which finds the same first error.
func (c *Circuit) Validate() error {
	exact := c.indexed()
	inputs := make(map[string]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		if inputs[in] {
			return fmt.Errorf("lut circuit %q: duplicate input %q", c.Name, in)
		}
		inputs[in] = true
		exact = exact && c.byName[in] == nil
	}
	var luts map[string]bool // the LUT names, unless the index is exact
	if !exact {
		luts = make(map[string]bool, len(c.LUTs))
	}
	for _, l := range c.LUTs {
		if luts != nil {
			if inputs[l.Name] || luts[l.Name] {
				return fmt.Errorf("lut circuit %q: duplicate name %q", c.Name, l.Name)
			}
			luts[l.Name] = true
		}
		if len(l.Inputs) > c.K {
			return fmt.Errorf("lut circuit %q: %q exceeds K=%d inputs", c.Name, l.Name, c.K)
		}
		if l.Table.N != len(l.Inputs) {
			return fmt.Errorf("lut circuit %q: %q table arity mismatch", c.Name, l.Name)
		}
	}
	defined := func(s string) bool {
		if luts != nil {
			return inputs[s] || luts[s]
		}
		return inputs[s] || c.byName[s] != nil
	}
	w := c.wire()
	for _, l := range c.LUTs {
		for j, d := range w.drivers(l) {
			if (d == nil || luts != nil) && !defined(l.Inputs[j]) {
				return fmt.Errorf("lut circuit %q: %q uses undefined signal %q", c.Name, l.Name, l.Inputs[j])
			}
		}
	}
	for _, o := range c.Outputs {
		if !defined(o.Signal) {
			return fmt.Errorf("lut circuit %q: output %q references undefined %q", c.Name, o.Name, o.Signal)
		}
	}
	for _, l := range c.Latches {
		if !inputs[l.Q] {
			return fmt.Errorf("lut circuit %q: latch output %q is not a circuit input", c.Name, l.Q)
		}
		if !defined(l.D) {
			return fmt.Errorf("lut circuit %q: latch %q data references undefined %q", c.Name, l.Q, l.D)
		}
	}
	_, err := w.topoOrder()
	return err
}

// slot returns l's position in c.LUTs, or -1 if l is away from its
// recorded position, which only a hand-edited circuit can reach.
func (c *Circuit) slot(l *LUT) int {
	if uint(l.id) < uint(len(c.LUTs)) && c.LUTs[l.id] == l {
		return l.id
	}
	return -1
}

// wiring is every LUT input resolved through the name index once: the
// inputs of the LUT at position i of c.LUTs are driven by
// drv[start[i]:start[i+1]], in input order, where nil stands for a
// primary input or an undefined signal. The topological walk and the
// passes after it follow these entries instead of probing the index
// again.
type wiring struct {
	c     *Circuit
	start []int
	drv   []*LUT
}

// wire resolves the inputs of every LUT in c.LUTs.
func (c *Circuit) wire() wiring {
	n := 0
	for _, l := range c.LUTs {
		n += len(l.Inputs)
	}
	w := wiring{c: c, start: make([]int, len(c.LUTs)+1), drv: make([]*LUT, 0, n)}
	for i, l := range c.LUTs {
		for _, in := range l.Inputs {
			w.drv = append(w.drv, c.byName[in])
		}
		w.start[i+1] = len(w.drv)
	}
	return w
}

// drivers returns the LUTs driving l's inputs, in input order. A LUT
// away from its position in c.LUTs resolves its inputs again.
func (w *wiring) drivers(l *LUT) []*LUT {
	if i := w.c.slot(l); i >= 0 {
		return w.drv[w.start[i]:w.start[i+1]]
	}
	d := make([]*LUT, len(l.Inputs))
	for j, in := range l.Inputs {
		d[j] = w.c.byName[in]
	}
	return d
}

// side holds a value per LUT: by position for a LUT at its recorded
// position in c.LUTs, by name for one away from it.
type side[T any] struct {
	c       *Circuit
	at      []T
	outside map[string]T
}

func newSide[T any](c *Circuit) side[T] {
	return side[T]{c: c, at: make([]T, len(c.LUTs))}
}

func (s *side[T]) get(l *LUT) T {
	if i := s.c.slot(l); i >= 0 {
		return s.at[i]
	}
	return s.outside[l.Name]
}

func (s *side[T]) set(l *LUT, v T) {
	if i := s.c.slot(l); i >= 0 {
		s.at[i] = v
		return
	}
	if s.outside == nil {
		s.outside = make(map[string]T)
	}
	s.outside[l.Name] = v
}

// Visit states of topoOrder.
const (
	white uint8 = iota
	gray
	black
)

// topoOrder returns LUTs with fanins first, or an error on a cycle.
func (c *Circuit) topoOrder() ([]*LUT, error) {
	w := c.wire()
	return w.topoOrder()
}

// topoOrder walks depth first from each LUT in c.LUTs order, visiting
// inputs in order, on an explicit stack so that no depth of logic can
// overflow the goroutine stack.
func (w *wiring) topoOrder() ([]*LUT, error) {
	c := w.c
	v := newSide[uint8](c)
	type frame struct {
		l    *LUT
		deps []*LUT
		next int // the input to visit next
	}
	var buf [64]frame
	stack := buf[:0]
	order := make([]*LUT, 0, len(c.LUTs))
	for _, root := range c.LUTs {
		if v.get(root) != white {
			continue
		}
		v.set(root, gray)
		stack = append(stack, frame{l: root, deps: w.drivers(root)})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next == len(top.deps) {
				v.set(top.l, black)
				order = append(order, top.l)
				stack = stack[:len(stack)-1]
				continue
			}
			dep := top.deps[top.next]
			top.next++
			if dep == nil {
				continue
			}
			switch v.get(dep) {
			case gray:
				return nil, fmt.Errorf("lut circuit %q: cycle through %q", c.Name, dep.Name)
			case white:
				v.set(dep, gray)
				stack = append(stack, frame{l: dep, deps: w.drivers(dep)})
			}
		}
	}
	return order, nil
}

// Simulate evaluates the circuit on 64 parallel input patterns.
func (c *Circuit) Simulate(assign map[string]uint64) (map[string]uint64, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	val := make(map[string]uint64, len(order)+len(c.Inputs))
	for _, in := range c.Inputs {
		val[in] = assign[in]
	}
	for _, l := range order {
		var w uint64
		// Evaluate the table bit-parallel: for each table row m, select
		// the patterns whose inputs match m.
		for b := 0; b < 64; b++ {
			var m uint
			for i, in := range l.Inputs {
				if val[in]>>uint(b)&1 == 1 {
					m |= 1 << uint(i)
				}
			}
			if l.Table.Eval(m) {
				w |= 1 << uint(b)
			}
		}
		val[l.Name] = w
	}
	out := make(map[string]uint64, len(c.Outputs)+len(c.Latches))
	for _, o := range c.Outputs {
		w := val[o.Signal]
		if o.Invert {
			w = ^w
		}
		out[o.Name] = w
	}
	for _, l := range c.Latches {
		w := val[l.D]
		if l.DInv {
			w = ^w
		}
		out["$latch$"+l.Q] = w
	}
	return out, nil
}

// Stats summarizes a mapped circuit.
type Stats struct {
	LUTs        int
	Depth       int         // LUT levels on the longest path
	Utilization map[int]int // histogram: used-input count -> LUTs
}

// Stats computes area/depth/utilization statistics.
func (c *Circuit) Stats() (Stats, error) {
	order, err := c.topoOrder()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{LUTs: len(c.LUTs), Utilization: make(map[int]int)}
	depth := make(map[string]int, len(order))
	for _, l := range order {
		d := 0
		for _, in := range l.Inputs {
			if dd := depth[in]; dd > d {
				d = dd
			}
		}
		depth[l.Name] = d + 1
		if depth[l.Name] > s.Depth {
			s.Depth = depth[l.Name]
		}
		s.Utilization[len(l.Inputs)]++
	}
	return s, nil
}

// Levels returns every LUT's level, aligned with LUTs: 1 + the maximum
// level of the LUTs driving its inputs, with primary inputs at level 0.
// The observability layer uses it to histogram a mapped circuit by
// depth.
func (c *Circuit) Levels() ([]int, error) {
	w := c.wire()
	order, err := w.topoOrder()
	if err != nil {
		return nil, err
	}
	lv := newSide[int](c)
	for _, l := range order {
		d := 0
		for _, dep := range w.drivers(l) {
			if dep != nil {
				d = max(d, lv.get(dep))
			}
		}
		lv.set(l, d+1)
	}
	for i, l := range c.LUTs {
		if c.slot(l) != i {
			lv.at[i] = lv.get(l)
		}
	}
	return lv.at, nil
}

// WriteBLIF emits the circuit as a BLIF model whose .names tables are
// the LUT truth tables (minterm form). Inverted outputs get an explicit
// inverter table. A destination with a Grow(int) method, such as a
// bytes.Buffer or a strings.Builder, is grown once to the output's
// length instead of doubling as it fills.
func (c *Circuit) WriteBLIF(w io.Writer) error {
	wr := c.wire()
	order, err := wr.topoOrder()
	if err != nil {
		return err
	}
	var latchQ map[string]bool
	if len(c.Latches) > 0 {
		latchQ = make(map[string]bool, len(c.Latches))
		for _, l := range c.Latches {
			latchQ[l.Q] = true
		}
	}
	outs := append([]Output(nil), c.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Name < outs[j].Name })
	plain := c.plainNames(outs)
	emit, reserved := c.blifNames(plain, order, outs)
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(c.blifSize(order, outs, latchQ))
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(".model ")
	bw.WriteString(c.Name)
	bw.WriteString("\n.inputs")
	for _, in := range c.Inputs {
		if latchQ[in] {
			continue // driven by a .latch line, not a primary input
		}
		writeField(bw, in)
	}
	bw.WriteString("\n.outputs")
	for _, o := range outs {
		writeField(bw, o.Name)
	}
	bw.WriteByte('\n')
	// A minterm row is the input values, variable 0 first, then " 1".
	var row [truth.MaxVars + 3]byte
	for _, l := range order {
		bw.WriteString(".names")
		for j, d := range wr.drivers(l) {
			if plain && d != nil {
				writeField(bw, l.Inputs[j]) // a LUT's name, unchanged
			} else {
				writeField(bw, emit(l.Inputs[j]))
			}
		}
		if plain {
			writeField(bw, l.Name)
		} else {
			writeField(bw, emit(l.Name))
		}
		bw.WriteByte('\n')
		if ok, v := l.Table.IsConst(); ok {
			// Constant LUT: an empty cover is constant 0; constant 1 is
			// a single all-dashes row over the declared inputs.
			if v {
				for range l.Inputs {
					bw.WriteByte('-')
				}
				if len(l.Inputs) > 0 {
					bw.WriteByte(' ')
				}
				bw.WriteString("1\n")
			}
			continue
		}
		n := l.Table.N
		copy(row[n:], " 1\n")
		for m := uint(0); m < 1<<uint(n); m++ {
			if !l.Table.Eval(m) {
				continue
			}
			for i := 0; i < n; i++ {
				row[i] = '0' + byte(m>>uint(i)&1)
			}
			bw.Write(row[:n+3])
		}
	}
	for _, o := range outs {
		if emit(o.Signal) == o.Name && !o.Invert {
			continue
		}
		writeBuffer(bw, emit(o.Signal), o.Name, o.Invert)
	}
	for _, l := range c.Latches {
		dname := emit(l.D)
		if l.DInv {
			inv := l.Q + "$D"
			for reserved[inv] {
				inv += "$"
			}
			reserved[inv] = true
			writeBuffer(bw, dname, inv, true)
			dname = inv
		}
		bw.WriteString(".latch ")
		bw.WriteString(dname)
		bw.WriteByte(' ')
		bw.WriteString(l.Q)
		bw.WriteByte(' ')
		bw.WriteRune(rune(l.Init))
		bw.WriteByte('\n')
	}
	bw.WriteString(".end\n")
	return bw.Flush()
}

// blifSize is the length of WriteBLIF's output, counted from the names
// and each table's minterms. It is exact when every signal is written
// under its own name, as plainNames checks. A renamed LUT or a latch
// inverter adds bytes it does not count; an undefined signal, written as
// an empty name, counts bytes it does not write.
func (c *Circuit) blifSize(order []*LUT, outs []Output, latchQ map[string]bool) int {
	n := len(".model \n.inputs\n.outputs\n.end\n") + len(c.Name)
	for _, in := range c.Inputs {
		if !latchQ[in] {
			n += 1 + len(in)
		}
	}
	for _, o := range outs {
		n += 1 + len(o.Name)
		if o.Signal != o.Name || o.Invert {
			n += len(".names  \n1 1\n") + len(o.Signal) + len(o.Name)
		}
	}
	for _, l := range order {
		n += len(".names \n") + len(l.Name)
		for _, in := range l.Inputs {
			n += 1 + len(in)
		}
		switch ok, v := l.Table.IsConst(); {
		case !ok:
			n += bits.OnesCount64(l.Table.Bits&truth.Mask(l.Table.N)) * (l.Table.N + len(" 1\n"))
		case v && len(l.Inputs) > 0:
			n += len(l.Inputs) + len(" 1\n")
		case v:
			n += len("1\n")
		}
	}
	for _, l := range c.Latches {
		n += len(".latch   0\n") + len(l.D) + len(l.Q)
	}
	return n
}

// blifNames returns the name WriteBLIF gives each signal, and the set of
// names taken, which names latch inverters. A LUT keeps its name unless
// an input, an output or an earlier LUT in order took it; it then gains
// "$int" suffixes. An undefined signal is written as an empty name.
func (c *Circuit) blifNames(plain bool, order []*LUT, outs []Output) (func(string) string, map[string]bool) {
	if plain {
		// No LUT is renamed and no latch inverter named, so the sets
		// below are not needed; only input names need a lookup table.
		inputs := make(map[string]bool, len(c.Inputs))
		for _, in := range c.Inputs {
			inputs[in] = true
		}
		return func(s string) string {
			if inputs[s] || c.byName[s] != nil {
				return s
			}
			return ""
		}, nil
	}
	reserved := make(map[string]bool, len(c.Inputs)+len(outs)+len(order))
	for _, in := range c.Inputs {
		reserved[in] = true
	}
	for _, o := range outs {
		reserved[o.Name] = true
	}
	emit := make(map[string]string, len(c.Inputs)+len(order))
	for _, in := range c.Inputs {
		emit[in] = in
	}
	for _, l := range order {
		name := l.Name
		for reserved[name] {
			name += "$int"
		}
		reserved[name] = true
		emit[l.Name] = name
	}
	return func(s string) string { return emit[s] }, reserved
}

// plainNames reports whether WriteBLIF can write every signal under its
// own name: the LUT list and the name index agree (so LUT names are
// distinct and every LUT is in the topological order), no LUT is named
// like a circuit input or output, and no latch needs an inverter.
func (c *Circuit) plainNames(outs []Output) bool {
	if !c.indexed() {
		return false
	}
	for _, in := range c.Inputs {
		if c.byName[in] != nil {
			return false
		}
	}
	for _, o := range outs {
		if c.byName[o.Name] != nil {
			return false
		}
	}
	for _, l := range c.Latches {
		if l.DInv {
			return false
		}
	}
	return true
}

// writeField writes name after a separating space.
func writeField(bw *bufio.Writer, name string) {
	bw.WriteByte(' ')
	bw.WriteString(name)
}

// writeBuffer writes a one-input table driving out from in, inverted or
// not.
func writeBuffer(bw *bufio.Writer, in, out string, invert bool) {
	bw.WriteString(".names ")
	bw.WriteString(in)
	writeField(bw, out)
	if invert {
		bw.WriteString("\n0 1\n")
	} else {
		bw.WriteString("\n1 1\n")
	}
}

// String renders a compact description for debugging.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %s: K=%d, %d LUTs\n", c.Name, c.K, len(c.LUTs))
	for _, l := range c.LUTs {
		fmt.Fprintf(&sb, "  %s = LUT(%s) %v\n", l.Name, strings.Join(l.Inputs, ","), l.Table)
	}
	for _, o := range c.Outputs {
		inv := ""
		if o.Invert {
			inv = "!"
		}
		fmt.Fprintf(&sb, "  output %s = %s%s\n", o.Name, inv, o.Signal)
	}
	return sb.String()
}
