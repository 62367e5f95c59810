// Package core implements the Chortle technology mapping algorithm
// (Francis, Rose, Chung, DAC 1990): covering a Boolean network with the
// minimum number of K-input lookup tables. The network is first split
// into maximal fanout-free trees (internal/forest); each tree is mapped
// optimally by a dynamic programming traversal that, at every node,
// considers every utilization division of the root lookup table and
// every decomposition of the node (Sections 3.1.1–3.1.3), with node
// splitting above a fanin threshold (Section 3.1.4).
package core

import (
	"fmt"

	"chortle/internal/cerrs"
	"chortle/internal/obs"
	"chortle/internal/truth"
)

// Options configures the mapper.
type Options struct {
	// K is the lookup table input count. The paper evaluates K = 2..5;
	// anything up to truth.MaxVars (6) is supported.
	K int

	// Engine selects the mapping algorithm: EngineTree (the paper's
	// fanout-free-tree DP, the default), EngineMIS (the MIS II-style
	// baseline coverer) or EngineCut (the priority-cut DAG mapper).
	// All engines emit the same lut.Circuit representation; the fields
	// below that tune the tree search are ignored by the other two.
	Engine Engine

	// SplitThreshold is the fanin bound above which a node is first
	// split into two nodes of roughly equal fanin (Section 3.1.4: "the
	// speed of our utilization division search ... makes it practical
	// for us to consider all possible decompositions of a node as long
	// as the fanin of the node is bounded by ten"). Optimality is no
	// longer guaranteed for split nodes.
	SplitThreshold int

	// DisableDecomposition is an ablation switch: when set, nodes are
	// never decomposed beyond what fanin > K forces (a balanced
	// pre-split down to fanin K), and the DP considers only utilization
	// divisions of the undecomposed node. This isolates the paper's
	// claim that searching all decompositions reduces LUT count.
	DisableDecomposition bool

	// DuplicateFanoutLogic enables the paper's future-work extension:
	// after forest decomposition, single-LUT trees that feed few
	// consumers may be duplicated into their consumers' trees when that
	// removes the shared LUT entirely.
	DuplicateFanoutLogic bool

	// Strategy selects the per-node decomposition search:
	// StrategyExhaustive (the paper's algorithm, default) or
	// StrategyBinPack (Chortle-crf-style first-fit-decreasing packing —
	// faster, unbounded fanin, not guaranteed optimal). StrategyBinPack
	// ignores SplitThreshold, DisableDecomposition and OptimizeDepth.
	Strategy Strategy

	// OptimizeDepth switches the per-tree objective from area to
	// lexicographic (depth, area): minimize LUT levels on the longest
	// path first — the direction the Chortle line took next (Chortle-d,
	// then FlowMap). Depth is optimal per fanout-free tree; the area
	// under it is greedy, so Result.LUTs may exceed the pure-area
	// mapping's count and no longer matches any optimality claim.
	OptimizeDepth bool

	// Budget bounds the exhaustive decomposition search per tree
	// (work units) and per run (soft wall-clock deadline). Trees that
	// exhaust it are remapped with StrategyBinPack and listed in
	// Result.Degraded; the mapping never fails on a budget. The zero
	// value is unlimited. See Budget.
	Budget Budget

	// Observer, when non-nil, receives structured events from the
	// mapping pipeline: phase boundaries with wall times, per-tree DP
	// solves with their metered work units, memo hits, budget trips and
	// degradations, arena statistics, and a per-LUT summary of the
	// finished circuit (see internal/obs). The zero value disables all
	// instrumentation: every emission site is a single nil check and the
	// hot path allocates nothing extra. Observation is strictly
	// read-only — the emitted circuit is byte-identical with or without
	// an observer, at every worker count and Budget. Sinks must tolerate
	// concurrent calls: the solve pool emits from its workers.
	Observer obs.Observer

	// Provenance records, on the emitted lut.Circuit, a per-LUT
	// ancestry record: the covered network gate nodes (a partition of
	// the prepared network's gates), the decomposition shape the DP
	// chose at the LUT's root, the owning tree with its solve's work
	// units, and the realization origin (fresh solve, memo reuse, bin
	// packing, budget degradation). Result.Prepared additionally carries
	// the preprocessed network the records refer to. Recording is
	// strictly passive — the circuit is byte-identical with or without
	// it — and with the flag off every hook is a nil check that
	// allocates nothing, the same discipline as the nil Observer.
	// Consumed by the explainability exporters (internal/explain: DOT
	// graphs, HTML run reports).
	Provenance bool

	// SharedCache, when non-nil, backs this run's shape memo with a
	// process-wide cross-run cache (NewSharedShapeCache): DP solves
	// published by any earlier Map call with compatible options are
	// reused, and this run's solves are published back. Only the exhaustive area search uses it, and it is ignored
	// under a wall-clock budget (Budget.WallClock), whose degradations
	// are timing-dependent — cache warmth never changes emitted bytes.
	// Every hit is verified against a canonical shape encoding before
	// reuse, so collisions degrade to misses, and cached state is
	// immutable after publish, so any number of Map calls may share one
	// cache concurrently.
	SharedCache *SharedShapeCache

	// RepackLUTs enables the post-mapping peephole that merges
	// single-fanout LUTs into consumers when the combined distinct
	// inputs fit K. It recovers part of the reconvergent-fanout loss
	// the paper describes (XOR structures cost Chortle one pin per leaf
	// edge even when the physical signals coincide) — a step toward the
	// paper's reconvergent-fanout future work. When set, Result.LUTs
	// may be lower than Result.PredictedCost (the DP's tree-optimal
	// count).
	RepackLUTs bool
}

// DefaultOptions returns the paper's configuration for a given K.
func DefaultOptions(k int) Options {
	return Options{K: k, SplitThreshold: 10}
}

// Validate rejects out-of-range configurations: the check every mapping
// entry point runs first, exported so a server can refuse a bad request
// before spending anything on it.
func (o Options) Validate() error {
	if o.K < 2 || o.K > truth.MaxVars {
		return fmt.Errorf("core: K=%d out of range [2,%d]: %w", o.K, truth.MaxVars, cerrs.ErrBadK)
	}
	if int(o.Engine) >= len(engineNames) {
		return fmt.Errorf("core: invalid engine %d", o.Engine)
	}
	if o.SplitThreshold < 2 {
		return fmt.Errorf("core: split threshold %d must be at least 2", o.SplitThreshold)
	}
	if o.Budget.WorkUnits < 0 {
		return fmt.Errorf("core: negative work-unit budget %d", o.Budget.WorkUnits)
	}
	if o.Budget.WallClock < 0 {
		return fmt.Errorf("core: negative wall-clock budget %s", o.Budget.WallClock)
	}
	return nil
}

// infinity is the unreachable-cost sentinel for the DP tables.
const infinity = int32(1) << 30
