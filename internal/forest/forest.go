// Package forest implements the first step of the Chortle algorithm
// (Section 3, Figure 3): converting a Boolean network DAG into a forest
// of maximal fanout-free trees. Every node with out-degree greater than
// one — and every node driving a primary output — becomes the root of
// its own tree; consumers see such nodes as leaves, exactly as if each
// outgoing edge originated from a duplicated node as in the paper's
// construction. Trees are then mapped independently and the resulting
// circuits stitched back together at the shared (root) signals.
package forest

import (
	"fmt"

	"chortle/internal/network"
)

// Forest is the tree decomposition of a network.
type Forest struct {
	Net *network.Network
	// Roots lists the tree roots in topological order (a tree's leaf
	// trees come first), so mappers can realize shared signals before
	// their consumers.
	Roots []*network.Node

	// root holds, by node ID, each tree root at its own ID and nil
	// elsewhere, so a root test is one load and compare.
	root []*network.Node
}

// Decompose splits the network into maximal fanout-free trees.
// The network must be valid (acyclic, swept).
func Decompose(nw *network.Network) (*Forest, error) {
	order, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	nw.Reindex()
	counts := nw.FanoutCounts()
	// A node driving an output or a latch roots a tree whatever its
	// fanout; mark those drivers in one pass.
	drives := make([]bool, len(nw.Nodes))
	for _, o := range nw.Outputs {
		drives[o.Node.ID] = true
	}
	for _, l := range nw.Latches {
		drives[l.D.ID] = true
	}

	f := &Forest{Net: nw, root: make([]*network.Node, len(nw.Nodes))}
	for _, n := range order {
		if !n.IsInput() && (counts[n.ID] != 1 || drives[n.ID]) {
			f.root[n.ID] = n
			f.Roots = append(f.Roots, n)
		}
	}
	if len(f.Roots) == 0 {
		return nil, fmt.Errorf("forest: network %q has no gate outputs to map", nw.Name)
	}
	return f, nil
}

// IsRoot reports whether the node roots a tree.
func (f *Forest) IsRoot(n *network.Node) bool {
	return uint(n.ID) < uint(len(f.root)) && f.root[n.ID] == n
}

// IsLeafEdge reports whether, inside some tree, a fanin reference to n
// terminates the tree: n is a primary input or the root of another tree.
func (f *Forest) IsLeafEdge(n *network.Node) bool {
	return n.IsInput() || f.IsRoot(n)
}

// TreeNodes returns the gate nodes of the tree rooted at root, in
// postorder (fanins before the root). Leaf edges are not included.
func (f *Forest) TreeNodes(root *network.Node) []*network.Node {
	var out []*network.Node
	var walk func(n *network.Node)
	walk = func(n *network.Node) {
		for _, fin := range n.Fanins {
			if !f.IsLeafEdge(fin.Node) {
				walk(fin.Node)
			}
		}
		out = append(out, n)
	}
	walk(root)
	return out
}

// TreeLeaves returns the leaf nodes referenced by the tree rooted at
// root, one entry per leaf edge (a multi-fanout node feeding the tree
// twice appears twice, matching the paper's per-edge duplication).
func (f *Forest) TreeLeaves(root *network.Node) []*network.Node {
	var out []*network.Node
	var walk func(n *network.Node)
	walk = func(n *network.Node) {
		for _, fin := range n.Fanins {
			if f.IsLeafEdge(fin.Node) {
				out = append(out, fin.Node)
			} else {
				walk(fin.Node)
			}
		}
	}
	walk(root)
	return out
}

// Check verifies the decomposition invariants: every gate belongs to
// exactly one tree, and every tree edge appears in exactly one tree.
func (f *Forest) Check() error {
	seen := make(map[*network.Node]int)
	for _, r := range f.Roots {
		for _, n := range f.TreeNodes(r) {
			seen[n]++
		}
	}
	for _, n := range f.Net.Nodes {
		if n.IsInput() {
			continue
		}
		if seen[n] != 1 {
			return fmt.Errorf("forest: gate %q appears in %d trees, want 1", n.Name, seen[n])
		}
	}
	return nil
}
