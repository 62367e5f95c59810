package network

import (
	"fmt"
	"testing"

	"chortle/internal/cerrs"
)

// refValidate is the check Validate must agree with: a set of every node
// name built beside the name index, then the same structural checks.
func refValidate(nw *Network) error {
	seen := make(map[string]bool, len(nw.Nodes))
	for _, n := range nw.Nodes {
		if seen[n.Name] {
			return fmt.Errorf("network %q: %w: node %q", nw.Name, cerrs.ErrDuplicateName, n.Name)
		}
		seen[n.Name] = true
		switch n.Op {
		case OpInput:
			if len(n.Fanins) != 0 {
				return fmt.Errorf("network %q: input %q has fanins", nw.Name, n.Name)
			}
		case OpAnd, OpOr:
			if len(n.Fanins) == 0 {
				return fmt.Errorf("network %q: gate %q has no fanins", nw.Name, n.Name)
			}
		default:
			return fmt.Errorf("network %q: node %q has invalid op %d", nw.Name, n.Name, n.Op)
		}
	}
	if len(nw.Outputs) == 0 && len(nw.Latches) == 0 {
		return fmt.Errorf("network %q: no outputs", nw.Name)
	}
	outNames := make(map[string]bool, len(nw.Outputs))
	for _, o := range nw.Outputs {
		if o.Node == nil {
			return fmt.Errorf("network %q: output %q references nil node", nw.Name, o.Name)
		}
		if outNames[o.Name] {
			return fmt.Errorf("network %q: %w: output %q", nw.Name, cerrs.ErrDuplicateName, o.Name)
		}
		outNames[o.Name] = true
	}
	latchQ := make(map[string]bool, len(nw.Latches))
	for _, l := range nw.Latches {
		if l.D == nil {
			return fmt.Errorf("network %q: latch %q has nil data input", nw.Name, l.Q)
		}
		if nw.Find(l.Q) == nil || !nw.Find(l.Q).IsInput() {
			return fmt.Errorf("network %q: latch output %q is not a declared input", nw.Name, l.Q)
		}
		if latchQ[l.Q] {
			return fmt.Errorf("network %q: duplicate latch %q", nw.Name, l.Q)
		}
		latchQ[l.Q] = true
	}
	_, err := nw.TopoSort()
	return err
}

// TestValidateAgreesWithReference edits figure1 by hand, once per error
// Validate reports and per way the name index can disagree with Nodes:
// Validate must return exactly the reference's error, and the texts of
// the index edits are pinned.
func TestValidateAgreesWithReference(t *testing.T) {
	cases := map[string]func(nw *Network){
		"valid": func(nw *Network) {},
		"duplicate node appended": func(nw *Network) {
			nw.Nodes = append(nw.Nodes, &Node{Name: "g2", Op: OpAnd, Fanins: []Fanin{{Node: nw.Find("a")}}})
		},
		"fresh node appended": func(nw *Network) {
			nw.Nodes = append(nw.Nodes, &Node{Name: "g9", Op: OpAnd, Fanins: []Fanin{{Node: nw.Find("a")}}})
		},
		"input appended twice":    func(nw *Network) { nw.Nodes = append(nw.Nodes, nw.Find("a")) },
		"renamed to a taken name": func(nw *Network) { nw.Find("g3").Name = "b" },
		"renamed to a fresh name": func(nw *Network) { nw.Find("g1").Name = "h1" },
		"renamed and bad op": func(nw *Network) {
			nw.Find("g1").Name = "h1"
			nw.Find("g4").Op = Op(9)
		},
		"input with fanins": func(nw *Network) {
			nw.Find("e").Fanins = []Fanin{{Node: nw.Find("a")}}
		},
		"gate without fanins": func(nw *Network) { nw.Find("g2").Fanins = nil },
		"invalid op":          func(nw *Network) { nw.Find("g4").Op = Op(7) },
		"no outputs":          func(nw *Network) { nw.Outputs = nil },
		"nil output":          func(nw *Network) { nw.MarkOutput("w", nil, false) },
		"duplicate output":    func(nw *Network) { nw.MarkOutput("y", nw.Find("g1"), false) },
		"latch nil data":      func(nw *Network) { nw.AddLatch("a", nil, false, '0') },
		"latch on a gate":     func(nw *Network) { nw.AddLatch("g1", nw.Find("g2"), false, '0') },
		"latch twice": func(nw *Network) {
			nw.AddLatch("a", nw.Find("g2"), false, '0')
			nw.AddLatch("a", nw.Find("g3"), true, '1')
		},
		"cycle": func(nw *Network) {
			g1 := nw.Find("g1")
			g1.Fanins = append(g1.Fanins, Fanin{Node: nw.Find("g3")})
		},
		"fanin outside": func(nw *Network) {
			nw.Find("g1").Fanins[0].Node = &Node{Name: "stray", ID: 99}
		},
	}
	want := map[string]string{
		"valid":                   "<nil>",
		"duplicate node appended": `network "figure1": duplicate name: node "g2"`,
		"input appended twice":    `network "figure1": duplicate name: node "a"`,
		"renamed to a taken name": `network "figure1": duplicate name: node "b"`,
		"renamed to a fresh name": "<nil>",
		"renamed and bad op":      `network "figure1": node "g4" has invalid op 9`,
	}
	for name, edit := range cases {
		nw := figure1()
		edit(nw)
		got, ref := fmt.Sprint(nw.Validate()), fmt.Sprint(refValidate(nw))
		if got != ref {
			t.Errorf("%s: Validate = %s, reference %s", name, got, ref)
		}
		if w, ok := want[name]; ok && got != w {
			t.Errorf("%s: Validate = %s, want %s", name, got, w)
		}
	}
}
