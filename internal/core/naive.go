package core

import (
	"fmt"

	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// MapNaive is the floor baseline: one lookup table per gate, with gates
// wider than K pre-split balanced. No merging across gates, no
// decomposition search — the mapping a direct netlist translation
// would produce. It exists to calibrate the real mappers: the paper's
// entire contribution is the distance between this and Map.
func MapNaive(input *network.Network, k int) (*Result, error) {
	opts := DefaultOptions(k)
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := input.Validate(); err != nil {
		return nil, err
	}
	nw := input.Clone()
	nw.Sweep()
	split := splitWideNodes(nw, k)
	// Forest decomposition only to reuse the output bookkeeping; every
	// gate becomes its own LUT regardless of tree structure.
	if _, err := forest.Decompose(nw); err != nil {
		return nil, err
	}
	order, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	ckt := lut.New(nw.Name, k)
	for _, in := range nw.Inputs {
		ckt.AddInput(in.Name)
	}
	sig := make(map[*network.Node]string, len(order))
	for _, in := range nw.Inputs {
		sig[in] = in.Name
	}
	for _, n := range order {
		if n.IsInput() {
			continue
		}
		inputs := make([]string, len(n.Fanins))
		invs := make([]bool, len(n.Fanins))
		for i, f := range n.Fanins {
			s, ok := sig[f.Node]
			if !ok {
				return nil, fmt.Errorf("core: naive mapping order broken at %q", n.Name)
			}
			inputs[i] = s
			invs[i] = f.Invert
		}
		op := n.Op
		table := truth.FromFunc(len(inputs), func(m uint) bool {
			if op == network.OpAnd {
				for i := range inputs {
					if (m>>uint(i)&1 == 1) == invs[i] {
						return false
					}
				}
				return true
			}
			for i := range inputs {
				if (m>>uint(i)&1 == 1) != invs[i] {
					return true
				}
			}
			return false
		})
		name := n.Name
		if ckt.Find(name) != nil {
			name = name + "$nv"
		}
		ckt.AddLUT(name, inputs, table)
		sig[n] = name
	}
	for _, o := range nw.Outputs {
		ckt.MarkOutput(o.Name, sig[o.Node], o.Invert)
	}
	for _, l := range nw.Latches {
		ckt.AddLatch(l.Q, sig[l.D], l.DInv, l.Init)
	}
	if err := ckt.Validate(); err != nil {
		return nil, err
	}
	return &Result{Circuit: ckt, LUTs: ckt.Count(), Trees: 0, PredictedCost: ckt.Count(), SplitNodes: split}, nil
}
