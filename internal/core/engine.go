package core

import (
	"context"
	"fmt"
	"strings"

	"chortle/internal/cut"
	"chortle/internal/mislib"
	"chortle/internal/mismap"
	"chortle/internal/network"
)

// Engine selects which mapping algorithm Map runs. All engines consume
// the same Boolean network and emit the same lut.Circuit, so the
// simulation, verification and provenance stacks work unchanged across
// them; they differ in how they cover the network with K-input tables.
type Engine uint8

const (
	// EngineTree is the paper's algorithm (the default): fanout-free
	// tree decomposition with an exhaustive per-tree decomposition DP.
	// Area-optimal per tree, blind to reconvergent fanout.
	EngineTree Engine = iota
	// EngineMIS is the paper's baseline: a DAGON/MIS II-style
	// structural tree coverer over the Section 4.1 library.
	EngineMIS
	// EngineCut is the priority-cut DAG mapper (internal/cut):
	// K-feasible cut enumeration over the whole network with area-flow
	// cover selection — the engine that sees through reconvergent
	// fanout. Tree-engine tuning options (Strategy, SplitThreshold,
	// DisableDecomposition, Budget, SharedCache) do not apply and are
	// ignored.
	EngineCut
)

var engineNames = [...]string{
	EngineTree: "tree",
	EngineMIS:  "mis",
	EngineCut:  "cut",
}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine resolves an engine name ("tree", "mis", "cut"; case
// insensitive, empty means tree) to its Engine value.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "tree":
		return EngineTree, nil
	case "mis":
		return EngineMIS, nil
	case "cut":
		return EngineCut, nil
	}
	return EngineTree, fmt.Errorf("core: unknown engine %q (want tree, mis or cut)", s)
}

// mapCut runs the priority-cut engine on an input MapCtx has validated
// and adapts its result. Trees reports the selected-cut count (every
// LUT roots one cut).
func mapCut(ctx context.Context, input *network.Network, opts Options) (*Result, error) {
	r, err := cut.MapCtx(ctx, input, cut.Options{
		K:          opts.K,
		Observer:   opts.Observer,
		Provenance: opts.Provenance,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:       r.Circuit,
		LUTs:          r.LUTs,
		Trees:         r.LUTs,
		PredictedCost: r.LUTs,
		Prepared:      r.Prepared,
	}
	return finishEngineResult(res, opts)
}

// mapMIS runs the MIS II-style baseline as an engine on an input MapCtx
// has validated. The library is derived from K (complete for K <= 3,
// level-0 kernels above).
func mapMIS(ctx context.Context, input *network.Network, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lib, err := mislib.ForK(opts.K)
	if err != nil {
		return nil, err
	}
	r, err := mismap.Map(input, lib)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:       r.Circuit,
		LUTs:          r.LUTs,
		Trees:         r.Trees,
		PredictedCost: r.LUTs,
	}
	return finishEngineResult(res, opts)
}

// finishEngineResult applies the engine-independent post-processing
// the tree path gets in MapCtx: the optional repacking peephole plus a
// final structural validation.
func finishEngineResult(res *Result, opts Options) (*Result, error) {
	if opts.RepackLUTs {
		if _, err := res.Circuit.Repack(); err != nil {
			return nil, fmt.Errorf("core: repacking: %w", err)
		}
		if err := res.Circuit.Validate(); err != nil {
			return nil, fmt.Errorf("core: repacked circuit invalid: %w", err)
		}
		res.LUTs = res.Circuit.Count()
	}
	return res, nil
}
