package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"chortle/internal/cerrs"
	"chortle/internal/network"
)

// Cost-aware fanout duplication. The naive duplication pass
// (Options.DuplicateFanoutLogic) copies every small shared gate and, as
// the paper observed of MIS's greedy version, usually loses area.
// MapDuplicateCostAware instead evaluates each candidate with the tree
// DP itself: a shared gate is duplicated only if the total cost of the
// affected trees (the gate's own tree plus its consumers' trees)
// strictly drops. This is the profitable form of the paper's
// "duplication of logic at fanout nodes" future work — the idea that
// became replication in Chortle-crf.

// MapDuplicateCostAware greedily applies profitable duplications and
// then maps. The returned Result reflects the final mapping; the int is
// the number of duplications accepted.
func MapDuplicateCostAware(input *network.Network, opts Options) (*Result, int, error) {
	return MapDuplicateCostAwareCtx(context.Background(), input, opts)
}

// MapDuplicateCostAwareCtx is MapDuplicateCostAware under a context.
// The search observes cancellation between candidates and inside every
// cost probe; a cancelled context aborts with its error. A wall-clock
// budget (Options.Budget.WallClock) instead stops the search gracefully
// — duplications accepted so far are kept and the final mapping
// degrades per-tree like any budgeted MapCtx call.
func MapDuplicateCostAwareCtx(ctx context.Context, input *network.Network, opts Options) (*Result, int, error) {
	if err := opts.Validate(); err != nil {
		return nil, 0, err
	}
	if opts.Engine != EngineTree {
		// The duplication search's cost oracle is the tree DP; the other
		// engines cover the DAG directly and have no per-tree cost to
		// improve, so the combination is a configuration error.
		return nil, 0, fmt.Errorf("core: engine %v does not support cost-aware duplication", opts.Engine)
	}
	if err := input.Validate(); err != nil {
		return nil, 0, err
	}
	nw := input.Clone()
	nw.Sweep()
	accepted := 0
	tr := newTracer(opts.Observer)
	tr.MapStart(opts.K, len(nw.Nodes))
	// One cost memo for the entire search: the trial networks differ from
	// the base in only the trees a duplication touches, so nearly every
	// tree cost of a trial is a memo hit instead of a DP solve. Cost
	// probes run unbudgeted (work units bound the final mapping, not the
	// search's cost oracle) but still observe ctx and the deadline. They
	// are also unobserved: a probe is a cost oracle, not a mapping run,
	// and emitting its thousands of solves would drown the trace.
	cm := make(map[string]int32)
	probeOpts := opts
	probeOpts.Budget = Budget{}
	probeOpts.Observer = nil
	// The soft wall-clock budget bounds the search phase through a
	// derived deadline (per-probe budgets would restart the clock every
	// trial); the final mapping below then gets its own budget window.
	searchCtx := ctx
	if opts.Budget.WallClock > 0 {
		var cancel context.CancelFunc
		searchCtx, cancel = context.WithTimeout(ctx, opts.Budget.WallClock)
		defer cancel()
	}
	// Iterate to a fixed point with a safety bound: each accepted
	// duplication strictly reduces the DP cost, which is bounded below.
	endPhase := tr.Phase("dup-search")
	for pass := 0; pass < 8; pass++ {
		changed, err := dupPass(searchCtx, nw, probeOpts, cm, &accepted, tr)
		if err != nil {
			// The search-phase deadline stops the search, keeping the
			// duplications found so far; the caller's own cancellation
			// aborts outright.
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				break
			}
			endPhase()
			return nil, 0, err
		}
		if !changed {
			break
		}
	}
	endPhase()
	res, err := MapCtx(ctx, nw, opts)
	if err != nil {
		return nil, 0, err
	}
	return res, accepted, nil
}

// totalTreeCost maps (cost only) the whole network, resolving known
// tree shapes through the cost memo.
func totalTreeCost(ctx context.Context, nw *network.Network, opts Options, cm map[string]int32) (int, error) {
	costs, err := treeCosts(ctx, nw, opts, cm)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range costs {
		total += c
	}
	return total, nil
}

// dupPass tries every candidate once, committing improvements.
func dupPass(ctx context.Context, nw *network.Network, opts Options, cm map[string]int32, accepted *int, tr tracer) (bool, error) {
	base, err := totalTreeCost(ctx, nw, opts, cm)
	if err != nil {
		return false, err
	}
	// Candidates: multi-fanout gates small enough to merge into a
	// consumer LUT. Deterministic order by name.
	nw.Reindex()
	counts := nw.FanoutCounts()
	var candidates []string
	for _, n := range nw.Nodes {
		if n.IsInput() || len(n.Fanins) >= opts.K {
			continue
		}
		if fo := counts[n.ID]; fo >= 2 && fo <= maxDupFanout {
			candidates = append(candidates, n.Name)
		}
	}
	sort.Strings(candidates)

	changed := false
	for _, name := range candidates {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		n := nw.Find(name)
		if n == nil {
			continue // removed by an earlier accepted duplication
		}
		trial := nw.Clone()
		if !duplicateOne(trial, name) {
			continue
		}
		trial.Sweep()
		if err := trial.Validate(); err != nil {
			continue
		}
		cost, err := totalTreeCost(ctx, trial, opts, cm)
		if err != nil {
			// Cancellation and deadline expiry must abort the pass; any
			// other probe failure just disqualifies this candidate.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, cerrs.ErrBudgetExhausted) {
				return false, err
			}
			continue
		}
		if cost < base {
			// Commit by replaying on the live network.
			if duplicateOne(nw, name) {
				nw.Sweep()
				base = cost
				*accepted++
				changed = true
				tr.dupAccepted(name)
			}
		}
	}
	return changed, nil
}

// duplicateOne gives each gate consumer of the named node a private
// copy. Returns false if the node no longer qualifies.
func duplicateOne(nw *network.Network, name string) bool {
	n := nw.Find(name)
	if n == nil || n.IsInput() {
		return false
	}
	gensym := 0
	fresh := func() string {
		for {
			gensym++
			cand := name + "$ca" + string(rune('0'+gensym%10)) + string(rune('a'+gensym/10%26))
			if nw.Find(cand) == nil {
				return cand
			}
		}
	}
	did := false
	for _, consumer := range nw.Nodes {
		if consumer.IsInput() || consumer == n {
			continue
		}
		for i, f := range consumer.Fanins {
			if f.Node != n {
				continue
			}
			cp := nw.AddGate(fresh(), n.Op, append([]network.Fanin(nil), n.Fanins...)...)
			consumer.Fanins[i] = network.Fanin{Node: cp, Invert: f.Invert}
			did = true
		}
	}
	return did
}
