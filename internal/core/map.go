package core

import (
	"context"
	"errors"
	"fmt"

	"chortle/internal/cerrs"
	"chortle/internal/forest"
	"chortle/internal/lut"
	"chortle/internal/network"
)

// Result is the outcome of a mapping run.
type Result struct {
	// Circuit is the mapped K-LUT circuit.
	Circuit *lut.Circuit
	// LUTs is the circuit area (lookup table count).
	LUTs int
	// Trees is the number of fanout-free trees mapped.
	Trees int
	// PredictedCost is the DP's cost total; it always equals LUTs (a
	// mismatch would indicate a reconstruction bug and is reported as an
	// error by Map).
	PredictedCost int
	// SplitNodes counts nodes added by the wide-fanin pre-split.
	SplitNodes int
	// Degraded lists, in mapping order, the root names of trees whose
	// exhaustive search exhausted Options.Budget and were remapped with
	// the bin-packing strategy instead. Empty means every tree got the
	// full search (the circuit is tree-optimal as usual); non-empty
	// means the circuit is valid but best-effort on those trees.
	Degraded []string
	// CacheHits and CacheMisses count the distinct tree shapes this run
	// resolved from, respectively missed in, the cross-run shared cache
	// (Options.SharedCache). Both are zero when no shared cache was in
	// effect; within-run memo reuse is not counted here.
	CacheHits   int
	CacheMisses int
	// Prepared is the preprocessed network the mapper actually covered
	// — cloned, swept, wide nodes split, optional fanout duplication
	// applied — recorded only when Options.Provenance is set, so the
	// circuit's provenance records (which name this network's gates)
	// and the explainability exporters have the graph they refer to.
	// Nil otherwise.
	Prepared *network.Network
}

// Map runs the Chortle algorithm on the network, producing a circuit of
// K-input lookup tables that implements it. The input network is not
// modified. For fanout-free trees the result is area-optimal under the
// paper's cost model; across trees the forest decomposition is the
// paper's (no logic duplication at fanout nodes unless
// Options.DuplicateFanoutLogic is set).
func Map(input *network.Network, opts Options) (*Result, error) {
	return MapCtx(context.Background(), input, opts)
}

// MapCtx is Map under a context: cancellation or deadline expiry makes
// the mapping return ctx.Err() promptly — the worker pool observes the
// context between trees and the DP inner loops observe it every few
// thousand work units — with all goroutines joined and all arenas
// returned. Budgets (Options.Budget) are independent of the context:
// they degrade trees instead of failing, see Result.Degraded.
func MapCtx(ctx context.Context, input *network.Network, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := input.Validate(); err != nil {
		return nil, err
	}
	switch opts.Engine {
	case EngineMIS:
		return mapMIS(ctx, input, opts)
	case EngineCut:
		return mapCut(ctx, input, opts)
	}
	tr := newTracer(opts.Observer)
	tr.MapStart(opts.K, len(input.Nodes))
	endPhase := tr.Phase("prepare")
	nw := input.Clone()
	nw.Sweep()

	split := 0
	if opts.Strategy == StrategyExhaustive {
		limit := opts.SplitThreshold
		if opts.DisableDecomposition && limit > opts.K {
			// Without the decomposition search, the DP cannot cover
			// nodes wider than K; pre-split down to K.
			limit = opts.K
		}
		split = splitWideNodes(nw, limit)
	}

	if opts.DuplicateFanoutLogic {
		duplicateFanoutLogic(nw, opts)
	}
	endPhase()

	endPhase = tr.Phase("forest")
	f, err := forest.Decompose(nw)
	endPhase()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	m := newMapper(nw, f, opts)

	predicted := 0
	var degraded []string
	// With the default strategy and objective, per-tree DPs are
	// independent (tree costs never depend on other trees' results), so
	// they run concurrently and identical shapes share one solve;
	// reconstruction stays sequential for deterministic naming. The
	// bin-packing and depth paths keep their own per-tree state. mctx
	// also carries the run's cancellation/budget plumbing, which the
	// depth path borrows for its governors.
	mctx := newMapCtx(ctx, f, opts)
	defer mctx.release()
	if opts.Strategy == StrategyExhaustive && !opts.OptimizeDepth {
		endPhase = tr.Phase("solve")
		err := mctx.solveShapes()
		endPhase()
		if err != nil {
			return nil, err
		}
		// The bin-packing and depth paths predict nothing up front; their
		// circuits grow chunk by chunk.
		m.ckt.Grow(mctx.predictedLUTs())
	}
	endPhase = tr.Phase("reconstruct")
	for i, root := range f.Roots {
		if err := ctx.Err(); err != nil {
			endPhase()
			return nil, err
		}
		var cost int32
		var err error
		switch {
		case opts.Strategy == StrategyBinPack:
			m.setProvTree(root.Name, lut.OriginBinPack, 0)
			cost, err = m.realizeTreeCRF(root)
		case opts.OptimizeDepth:
			gov := mctx.newGov()
			solveStart := tr.now()
			cost, err = m.realizeTreeDepth(root, gov)
			if err == nil {
				tr.treeSolve(root.Name, gov.units, cost, solveStart)
			}
		default:
			cost, err = m.realizeTreeMemo(root, mctx.shapes[i], mctx)
		}
		if err != nil && errors.Is(err, cerrs.ErrBudgetExhausted) {
			// Budget ran out on this tree: degrade it to the bin-packing
			// strategy, which needs no search budget, and keep going.
			tr.budgetExhausted(root.Name, opts.Budget.WorkUnits)
			m.setProvTree(root.Name, lut.OriginDegraded, 0)
			cost, err = m.realizeTreeCRF(root)
			if err == nil {
				degraded = append(degraded, root.Name)
				tr.treeDegraded(root.Name, cost)
			}
		}
		if err != nil {
			endPhase()
			return nil, err
		}
		predicted += int(cost)
	}
	endPhase()

	endPhase = tr.Phase("finalize")
	for _, o := range nw.Outputs {
		if o.Node.IsInput() {
			m.ckt.MarkOutput(o.Name, o.Node.Name, o.Invert)
			continue
		}
		r := m.roots[o.Node.ID]
		if !r.ok {
			return nil, fmt.Errorf("core: output %q driver %q was not mapped", o.Name, o.Node.Name)
		}
		m.ckt.MarkOutput(o.Name, r.sig, o.Invert)
	}
	for _, l := range nw.Latches {
		if l.D.IsInput() {
			m.ckt.AddLatch(l.Q, l.D.Name, l.DInv, l.Init)
			continue
		}
		r := m.roots[l.D.ID]
		if !r.ok {
			return nil, fmt.Errorf("core: latch %q driver %q was not mapped", l.Q, l.D.Name)
		}
		m.ckt.AddLatch(l.Q, r.sig, l.DInv, l.Init)
	}

	if err := m.ckt.Validate(); err != nil {
		endPhase()
		return nil, fmt.Errorf("core: mapped circuit invalid: %w", err)
	}
	if m.ckt.Count() != predicted {
		endPhase()
		return nil, fmt.Errorf("core: reconstruction emitted %d LUTs but DP predicted %d", m.ckt.Count(), predicted)
	}
	endPhase()
	if opts.RepackLUTs {
		endPhase = tr.Phase("repack")
		if _, err := m.ckt.Repack(); err != nil {
			endPhase()
			return nil, fmt.Errorf("core: repacking: %w", err)
		}
		if err := m.ckt.Validate(); err != nil {
			endPhase()
			return nil, fmt.Errorf("core: repacked circuit invalid: %w", err)
		}
		endPhase()
	}
	tr.Circuit(m.ckt, len(f.Roots))
	res := &Result{
		Circuit:       m.ckt,
		LUTs:          m.ckt.Count(),
		Trees:         len(f.Roots),
		PredictedCost: predicted,
		SplitNodes:    split,
		Degraded:      degraded,
	}
	res.CacheHits, res.CacheMisses = mctx.cacheHits, mctx.cacheMisses
	if opts.Provenance {
		res.Prepared = nw
	}
	return res, nil
}

// TreeCosts maps the network and returns the per-tree optimal LUT
// counts, keyed by tree root name — the quantity the optimality tests
// compare against exhaustive reference enumeration. Tree DPs are solved
// on the worker pool.
func TreeCosts(input *network.Network, opts Options) (map[string]int, error) {
	return treeCosts(context.Background(), input, opts, nil)
}

// treeCosts is TreeCosts with a context and an optional cross-network
// cost memo, keyed by shape key: trees whose shape is already known
// (from a previous network sharing most of its structure, as the
// duplication search's trial clones do) skip the DP solve entirely. The
// keys pin nothing of the networks that made them. Cost probes have no
// bin-packing fallback, so cancellation, deadline expiry and budget
// exhaustion all surface as errors here (the latter wrapping
// cerrs.ErrBudgetExhausted).
func treeCosts(ctx context.Context, input *network.Network, opts Options, cm map[string]int32) (map[string]int, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := input.Clone()
	nw.Sweep()
	limit := opts.SplitThreshold
	if opts.DisableDecomposition && limit > opts.K {
		limit = opts.K
	}
	splitWideNodes(nw, limit)
	f, err := forest.Decompose(nw)
	if err != nil {
		return nil, err
	}

	mctx := newMapCtx(ctx, f, opts)
	defer mctx.release()
	costs := make([]int32, len(f.Roots))
	unknown := make([]int, 0, len(f.Roots))
	var keys []string // unknown[j]'s shape key, with a cost memo
	var key []byte
	for i, root := range f.Roots {
		if cm != nil {
			key = appendShapeKey(key[:0], f, root, mctx.keyPrefix)
			if c, ok := cm[string(key)]; ok {
				costs[i] = c
				continue
			}
			keys = append(keys, string(key))
		}
		unknown = append(unknown, i)
	}

	solved := make([]int32, len(unknown))
	err = mctx.runPool(len(unknown), func(a *dpArena, j int) error {
		// Only the cost survives each solve, so the worker's arena is
		// recycled tree by tree.
		a.reset()
		dp, err := solveDP(a, f, f.Roots[unknown[j]], opts, mctx.newGov())
		if err != nil {
			return err
		}
		solved[j] = dp.bestCost
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, i := range unknown {
		costs[i] = solved[j]
		if cm != nil {
			cm[keys[j]] = solved[j]
		}
	}

	out := make(map[string]int, len(f.Roots))
	for i, root := range f.Roots {
		if costs[i] >= infinity {
			return nil, fmt.Errorf("core: tree %q unmappable", root.Name)
		}
		out[root.Name] = int(costs[i])
	}
	return out, nil
}
