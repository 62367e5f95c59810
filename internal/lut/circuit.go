// Package lut represents circuits of K-input lookup tables — the output
// of technology mapping. Each LUT carries its truth table, so a mapped
// circuit is fully specified and can be simulated, validated and
// exported to BLIF. Per the paper's cost model, area is simply the
// number of LUTs; output inverters are free (absorbed by the consuming
// block or IO), so circuit outputs carry a polarity flag.
package lut

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

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
}

// New returns an empty LUT circuit for K-input lookup tables.
func New(name string, k int) *Circuit {
	if k < 1 || k > truth.MaxVars {
		panic(fmt.Sprintf("lut: K=%d out of range [1,%d]", k, truth.MaxVars))
	}
	return &Circuit{Name: name, K: k, byName: make(map[string]*LUT)}
}

// AddInput declares a primary input signal.
func (c *Circuit) AddInput(name string) {
	c.Inputs = append(c.Inputs, name)
}

// AddLUT appends a lookup table; the name must be unique and the input
// count must not exceed K.
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
	l := &LUT{Name: name, Inputs: append([]string(nil), inputs...), Table: table, id: len(c.LUTs)}
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

// isInput reports whether name is a primary input signal.
func (c *Circuit) isInput(name string) bool {
	for _, in := range c.Inputs {
		if in == name {
			return true
		}
	}
	return false
}

// Validate checks the circuit structure: unique names, defined input
// signals, fanin bounds, table arities and acyclicity.
func (c *Circuit) Validate() error {
	seen := make(map[string]bool, len(c.Inputs)+len(c.LUTs))
	for _, in := range c.Inputs {
		if seen[in] {
			return fmt.Errorf("lut circuit %q: duplicate input %q", c.Name, in)
		}
		seen[in] = true
	}
	for _, l := range c.LUTs {
		if seen[l.Name] {
			return fmt.Errorf("lut circuit %q: duplicate name %q", c.Name, l.Name)
		}
		seen[l.Name] = true
		if len(l.Inputs) > c.K {
			return fmt.Errorf("lut circuit %q: %q exceeds K=%d inputs", c.Name, l.Name, c.K)
		}
		if l.Table.N != len(l.Inputs) {
			return fmt.Errorf("lut circuit %q: %q table arity mismatch", c.Name, l.Name)
		}
	}
	for _, l := range c.LUTs {
		for _, in := range l.Inputs {
			if !seen[in] {
				return fmt.Errorf("lut circuit %q: %q uses undefined signal %q", c.Name, l.Name, in)
			}
		}
	}
	for _, o := range c.Outputs {
		if !seen[o.Signal] {
			return fmt.Errorf("lut circuit %q: output %q references undefined %q", c.Name, o.Name, o.Signal)
		}
	}
	for _, l := range c.Latches {
		if !c.isInput(l.Q) {
			return fmt.Errorf("lut circuit %q: latch output %q is not a circuit input", c.Name, l.Q)
		}
		if !seen[l.D] {
			return fmt.Errorf("lut circuit %q: latch %q data references undefined %q", c.Name, l.Q, l.D)
		}
	}
	if _, err := c.topoOrder(); err != nil {
		return err
	}
	return nil
}

// Visit states of topoOrder.
const (
	white uint8 = iota
	gray
	black
)

// visits holds topoOrder's state per LUT, indexed by position in
// c.LUTs. A LUT away from its recorded position, which only a
// hand-edited circuit can reach, keeps its state in a map by name.
type visits struct {
	c       *Circuit
	state   []uint8
	outside map[string]uint8
}

// slot returns l's position in c.LUTs, or -1 if l is not there.
func (v *visits) slot(l *LUT) int {
	if uint(l.id) < uint(len(v.c.LUTs)) && v.c.LUTs[l.id] == l {
		return l.id
	}
	return -1
}

func (v *visits) get(l *LUT) uint8 {
	if i := v.slot(l); i >= 0 {
		return v.state[i]
	}
	return v.outside[l.Name]
}

func (v *visits) set(l *LUT, s uint8) {
	if i := v.slot(l); i >= 0 {
		v.state[i] = s
		return
	}
	if v.outside == nil {
		v.outside = make(map[string]uint8)
	}
	v.outside[l.Name] = s
}

// topoOrder returns LUTs with fanins first, or an error on a cycle. It
// walks depth first from each LUT in c.LUTs order, visiting inputs in
// order, on an explicit stack so that no depth of logic can overflow
// the goroutine stack.
func (c *Circuit) topoOrder() ([]*LUT, error) {
	v := visits{c: c, state: make([]uint8, len(c.LUTs))}
	type frame struct {
		l    *LUT
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
		stack = append(stack, frame{l: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next == len(top.l.Inputs) {
				v.set(top.l, black)
				order = append(order, top.l)
				stack = stack[:len(stack)-1]
				continue
			}
			dep := c.byName[top.l.Inputs[top.next]]
			top.next++
			if dep == nil {
				continue
			}
			switch v.get(dep) {
			case gray:
				return nil, fmt.Errorf("lut circuit %q: cycle through %q", c.Name, dep.Name)
			case white:
				v.set(dep, gray)
				stack = append(stack, frame{l: dep})
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

// Levels returns every LUT's level — 1 + the maximum level of its LUT
// fanins, with primary inputs at level 0 — in topological order
// alongside the LUTs themselves. The observability layer uses it to
// histogram a mapped circuit by depth.
func (c *Circuit) Levels() (map[string]int, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	levels := make(map[string]int, len(order))
	for _, l := range order {
		d := 0
		for _, in := range l.Inputs {
			if dd := levels[in]; dd > d {
				d = dd
			}
		}
		levels[l.Name] = d + 1
	}
	return levels, nil
}

// WriteBLIF emits the circuit as a BLIF model whose .names tables are
// the LUT truth tables (minterm form). Inverted outputs get an explicit
// inverter table.
func (c *Circuit) WriteBLIF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var latchQ map[string]bool
	if len(c.Latches) > 0 {
		latchQ = make(map[string]bool, len(c.Latches))
		for _, l := range c.Latches {
			latchQ[l.Q] = true
		}
	}
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
	outs := append([]Output(nil), c.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Name < outs[j].Name })
	for _, o := range outs {
		writeField(bw, o.Name)
	}
	bw.WriteByte('\n')
	order, err := c.topoOrder()
	if err != nil {
		return err
	}
	emit, reserved := c.blifNames(order, outs)
	// A minterm row is the input values, variable 0 first, then " 1".
	var row [truth.MaxVars + 3]byte
	for _, l := range order {
		bw.WriteString(".names")
		for _, in := range l.Inputs {
			writeField(bw, emit(in))
		}
		writeField(bw, emit(l.Name))
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

// blifNames returns the name WriteBLIF gives each signal, and the set of
// names taken, which names latch inverters. A LUT keeps its name unless
// an input, an output or an earlier LUT in order took it; it then gains
// "$int" suffixes. An undefined signal is written as an empty name.
func (c *Circuit) blifNames(order []*LUT, outs []Output) (func(string) string, map[string]bool) {
	if c.plainNames(outs) {
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
	if len(c.byName) != len(c.LUTs) {
		return false
	}
	for i, l := range c.LUTs {
		if l.id != i || c.byName[l.Name] != l {
			return false
		}
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
