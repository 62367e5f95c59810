package core

import (
	"chortle/internal/network"
	"chortle/internal/slab"
)

// Node splitting (Section 3.1.4): "For a node with fanin greater than
// ten the number of decompositions to be searched becomes impractically
// large. ... we initially decompose such large fanin nodes into two
// nodes with roughly equal fanin and then decompose each node
// separately." The split preserves function because AND and OR are
// associative, and the new half-nodes have fanout one so they stay
// inside the same fanout-free tree.

// splitWideNodes rewrites, in place, every gate whose fanin exceeds
// limit into a balanced binary structure of gates each with fanin at
// most limit. Returns the number of nodes added. The halves' names and
// fanin lists are carved from chunks (internal/slab).
func splitWideNodes(nw *network.Network, limit int) int {
	added := 0
	gensym := 0
	var (
		names  slab.Names
		fanins slab.Slab[network.Fanin]
		rest   []network.Fanin
	)
	fresh := func(base string) string {
		for {
			gensym++
			if name := names.Numbered(base, "$s", gensym); nw.Find(name) == nil {
				return name
			}
		}
	}
	// Recursively split one node; newly created halves are split in turn.
	var split func(n *network.Node)
	split = func(n *network.Node) {
		for len(n.Fanins) > limit {
			// Pull roughly half the fanins (never fewer than two, so no
			// degenerate buffer nodes appear) into a new half-node.
			mid := (len(n.Fanins) + 1) / 2
			a := nw.AddGate(fresh(n.Name), n.Op, fanins.Copy(n.Fanins[:mid])...)
			rest = append(append(rest[:0], network.Fanin{Node: a}), n.Fanins[mid:]...)
			n.Fanins = fanins.Copy(rest)
			added++
			split(a)
		}
	}
	// Splitting appends to nw.Nodes; the range visits the nodes there
	// before it started.
	for _, n := range nw.Nodes {
		if !n.IsInput() {
			split(n)
		}
	}
	nw.Reindex()
	return added
}
