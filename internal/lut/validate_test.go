package lut

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"chortle/internal/truth"
)

// refValidate is the sequential check Validate's fast path must agree
// with: one set of every input and LUT name, probed for every
// reference, then refTopoOrder.
func refValidate(c *Circuit) error {
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
		if !slices.Contains(c.Inputs, l.Q) {
			return fmt.Errorf("lut circuit %q: latch output %q is not a circuit input", c.Name, l.Q)
		}
		if !seen[l.D] {
			return fmt.Errorf("lut circuit %q: latch %q data references undefined %q", c.Name, l.Q, l.D)
		}
	}
	_, err := refTopoOrder(c)
	return err
}

// refTopoOrder is the topological walk that probes the name index for
// every input as it reaches it. Its visit state is kept by position for
// a LUT at its recorded position and by name for any other.
func refTopoOrder(c *Circuit) ([]*LUT, error) {
	state := make([]uint8, len(c.LUTs))
	outside := map[string]uint8{}
	get := func(l *LUT) uint8 {
		if l.id < len(c.LUTs) && c.LUTs[l.id] == l {
			return state[l.id]
		}
		return outside[l.Name]
	}
	set := func(l *LUT, s uint8) {
		if l.id < len(c.LUTs) && c.LUTs[l.id] == l {
			state[l.id] = s
		} else {
			outside[l.Name] = s
		}
	}
	type frame struct {
		l    *LUT
		next int
	}
	var stack []frame
	var order []*LUT
	for _, root := range c.LUTs {
		if get(root) != white {
			continue
		}
		set(root, gray)
		stack = append(stack, frame{l: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next == len(top.l.Inputs) {
				set(top.l, black)
				order = append(order, top.l)
				stack = stack[:len(stack)-1]
				continue
			}
			dep := c.byName[top.l.Inputs[top.next]]
			top.next++
			if dep == nil {
				continue
			}
			switch get(dep) {
			case gray:
				return nil, fmt.Errorf("lut circuit %q: cycle through %q", c.Name, dep.Name)
			case white:
				set(dep, gray)
				stack = append(stack, frame{l: dep})
			}
		}
	}
	return order, nil
}

// refLevels is each LUT's level keyed by name, computed over
// refTopoOrder's order.
func refLevels(c *Circuit) map[string]int {
	order, err := refTopoOrder(c)
	if err != nil {
		return nil
	}
	levels := map[string]int{}
	for _, l := range order {
		d := 0
		for _, in := range l.Inputs {
			d = max(d, levels[in])
		}
		levels[l.Name] = d + 1
	}
	return levels
}

// agree checks Validate, the topological order and, on a circuit whose
// index holds exactly its LUTs, Levels against the references.
func agree(t *testing.T, name string, c *Circuit) {
	t.Helper()
	got, want := c.Validate(), refValidate(c)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: Validate = %v, reference %v", name, got, want)
	}
	order, err := c.topoOrder()
	refOrder, refErr := refTopoOrder(c)
	if fmt.Sprint(err) != fmt.Sprint(refErr) || !slices.Equal(order, refOrder) {
		t.Errorf("%s: topoOrder = %v, %v; reference %v, %v", name, order, err, refOrder, refErr)
	}
	if err != nil || !c.indexed() {
		return
	}
	levels, err := c.Levels()
	if err != nil {
		t.Fatalf("%s: Levels: %v", name, err)
	}
	ref := refLevels(c)
	for i, l := range c.LUTs {
		if levels[i] != ref[l.Name] {
			t.Errorf("%s: level of %q = %d, reference %d", name, l.Name, levels[i], ref[l.Name])
		}
	}
}

// editedCircuits are circuits edited by hand after they were built, one
// per kind of error Validate reports and per way the name index can
// disagree with the LUT list.
func editedCircuits() map[string]*Circuit {
	and := truth.Var(0, 2).And(truth.Var(1, 2))
	cases := map[string]*Circuit{"valid": sampleCircuit()}
	edit := func(name string, f func(c *Circuit)) {
		c := sampleCircuit()
		f(c)
		cases[name] = c
	}
	edit("duplicate LUT appended", func(c *Circuit) {
		c.LUTs = append(c.LUTs, &LUT{Name: "l1", Inputs: []string{"a", "b"}, Table: and})
	})
	edit("fresh LUT appended", func(c *Circuit) {
		c.LUTs = append(c.LUTs, &LUT{Name: "l9", Inputs: []string{"l2", "b"}, Table: and})
	})
	edit("renamed to a fresh name", func(c *Circuit) { c.LUTs[0].Name = "m1" })
	edit("renamed to a taken name", func(c *Circuit) { c.LUTs[0].Name = "l2" })
	edit("renamed to an input", func(c *Circuit) { c.LUTs[1].Name = "d" })
	edit("LUT named like an input", func(c *Circuit) { c.AddLUT("c", []string{"a", "b"}, and) })
	edit("input named like a LUT", func(c *Circuit) { c.AddInput("l1") })
	edit("duplicate input", func(c *Circuit) { c.AddInput("b") })
	edit("duplicate input and a clash", func(c *Circuit) {
		c.AddInput("l2")
		c.AddInput("a")
	})
	edit("undefined input", func(c *Circuit) { c.LUTs[1].Inputs[2] = "ghost" })
	edit("bad arity", func(c *Circuit) { c.LUTs[0].Table = truth.Var(0, 3) })
	edit("dropped input", func(c *Circuit) { c.LUTs[1].Inputs = c.LUTs[1].Inputs[:2] })
	edit("more inputs than K", func(c *Circuit) {
		c.LUTs[1].Inputs = append(c.LUTs[1].Inputs, "a")
		c.LUTs[1].Table = truth.Var(0, 4)
	})
	edit("K lowered", func(c *Circuit) { c.K = 2 })
	edit("bad output", func(c *Circuit) { c.MarkOutput("w", "ghost", false) })
	edit("latch on a LUT", func(c *Circuit) { c.AddLatch("l1", "l2", false, '0') })
	edit("latch on an undefined signal", func(c *Circuit) { c.AddLatch("ghost", "l2", false, '0') })
	edit("latch from an undefined signal", func(c *Circuit) { c.AddLatch("d", "ghost", true, '0') })
	edit("valid latch", func(c *Circuit) { c.AddLatch("d", "l2", true, '1') })
	edit("cycle", func(c *Circuit) { c.LUTs[0].Inputs[1] = "l2" })
	edit("self loop", func(c *Circuit) { c.LUTs[0].Inputs[0] = "l1" })
	edit("reordered", func(c *Circuit) { c.LUTs[0], c.LUTs[1] = c.LUTs[1], c.LUTs[0] })
	edit("reordered cycle", func(c *Circuit) {
		c.LUTs[0].Inputs[1] = "l2"
		c.LUTs[0], c.LUTs[1] = c.LUTs[1], c.LUTs[0]
	})
	edit("dropped from the list", func(c *Circuit) { c.LUTs = c.LUTs[1:] })
	edit("listed twice", func(c *Circuit) { c.LUTs = append(c.LUTs, c.LUTs[0]) })
	return cases
}

// TestValidateAgreesWithReference checks every hand-edited circuit:
// Validate returns exactly the reference's error, and the walk visits
// the LUTs in the reference's order.
func TestValidateAgreesWithReference(t *testing.T) {
	for name, c := range editedCircuits() {
		agree(t, name, c)
	}
	for name, c := range blifCases() {
		agree(t, "blif "+name, c)
	}
}

// TestValidateErrorTexts pins the error each edit produces, so the
// reference cannot drift with the code it checks.
func TestValidateErrorTexts(t *testing.T) {
	want := map[string]string{
		"valid":                          "<nil>",
		"duplicate LUT appended":         `lut circuit "sample": duplicate name "l1"`,
		"renamed to a fresh name":        `lut circuit "sample": "l2" uses undefined signal "l1"`,
		"renamed to a taken name":        `lut circuit "sample": duplicate name "l2"`,
		"renamed to an input":            `lut circuit "sample": duplicate name "d"`,
		"LUT named like an input":        `lut circuit "sample": duplicate name "c"`,
		"input named like a LUT":         `lut circuit "sample": duplicate name "l1"`,
		"duplicate input":                `lut circuit "sample": duplicate input "b"`,
		"duplicate input and a clash":    `lut circuit "sample": duplicate input "a"`,
		"undefined input":                `lut circuit "sample": "l2" uses undefined signal "ghost"`,
		"bad arity":                      `lut circuit "sample": "l1" table arity mismatch`,
		"more inputs than K":             `lut circuit "sample": "l2" exceeds K=3 inputs`,
		"K lowered":                      `lut circuit "sample": "l2" exceeds K=2 inputs`,
		"bad output":                     `lut circuit "sample": output "w" references undefined "ghost"`,
		"latch on a LUT":                 `lut circuit "sample": latch output "l1" is not a circuit input`,
		"latch from an undefined signal": `lut circuit "sample": latch "d" data references undefined "ghost"`,
		"valid latch":                    "<nil>",
		"cycle":                          `lut circuit "sample": cycle through "l1"`,
		"reordered":                      "<nil>",
	}
	cases := editedCircuits()
	for name, w := range want {
		if got := fmt.Sprint(cases[name].Validate()); got != w {
			t.Errorf("%s: Validate = %s, want %s", name, got, w)
		}
	}
}

// FuzzCircuitValidate builds a circuit from bytes, with names drawn from
// a pool small enough to clash, LUTs added or appended by hand, and
// edits that rename, reorder and rewire them; Validate and the
// topological walk must agree with the references on every one.
func FuzzCircuitValidate(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 4, 2, 0, 1, 5, 2, 4, 2, 0, 6, 0})
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 2, 0, 1, 5, 2, 4, 0, 7, 1, 0, 5, 1, 1, 4})
	f.Add([]byte{4, 1, 0, 2, 4, 1, 0, 4, 1, 4, 1, 1, 2, 0, 4, 3, 5, 6, 1, 5, 0})
	f.Add([]byte{6, 4, 0, 1, 2, 3, 6, 4, 2, 0, 1, 5, 3, 4, 0, 1, 6, 3, 5, 6, 2, 3, 0, 1, 0, 2, 5, 7, 0})
	pool := []string{"a", "b", "c", "d", "l0", "l1", "l2", "l3", "l4", "ghost"}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := fmt.Sprintf("%q", data)
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		name := func() string { return pool[next(len(pool))] }
		c := New("fuzz", 1+next(truth.MaxVars))
		for n := 1 + next(4); n > 0; n-- {
			c.AddInput(name())
		}
		for n := next(7); n > 0; n-- {
			l := &LUT{Name: name()}
			for k := next(c.K + 2); k > 0; k-- {
				l.Inputs = append(l.Inputs, name())
			}
			l.Table = truth.Const(len(l.Inputs)%(truth.MaxVars+1), next(2) == 1)
			if c.Find(l.Name) == nil && len(l.Inputs) <= c.K && next(4) != 0 {
				c.AddLUT(l.Name, l.Inputs, l.Table)
			} else {
				c.LUTs = append(c.LUTs, l)
			}
		}
		for n := next(4); n > 0; n-- {
			c.MarkOutput(name(), name(), next(2) == 1)
		}
		for n := next(3); n > 0; n-- {
			c.AddLatch(name(), name(), next(2) == 1, '0')
		}
		for len(data) > 0 && len(c.LUTs) > 0 {
			l := c.LUTs[next(len(c.LUTs))]
			switch next(5) {
			case 0:
				l.Name = name()
			case 1:
				if len(l.Inputs) > 0 {
					l.Inputs[next(len(l.Inputs))] = name()
				}
			case 2:
				i, j := next(len(c.LUTs)), next(len(c.LUTs))
				c.LUTs[i], c.LUTs[j] = c.LUTs[j], c.LUTs[i]
			case 3:
				l.Table = truth.Const(next(truth.MaxVars+1), false)
			case 4:
				c.K = 1 + next(truth.MaxVars)
			}
		}
		agree(t, input, c)
		// WriteBLIF walks the same order; it must not fail where the
		// walk did not.
		if _, err := c.topoOrder(); err == nil {
			var sb strings.Builder
			if err := c.WriteBLIF(&sb); err != nil {
				t.Fatalf("WriteBLIF: %v", err)
			}
		}
	})
}
