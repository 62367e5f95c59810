package core

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"chortle/internal/cerrs"
	"chortle/internal/forest"
	"chortle/internal/network"
)

// Search budgets and cooperative cancellation for the exhaustive DP.
//
// The decomposition search is exponential in node fanin, so a single
// pathological tree can hold a mapping hostage. A Budget bounds it two
// ways: WorkUnits caps the search effort spent on any one tree, and
// WallClock is a soft deadline for the whole run. Neither failure mode
// aborts the mapping — a tree that exhausts its budget is remapped
// with the bin-packing strategy (Chortle-crf's own answer to the same
// problem) and reported in Result.Degraded, so the caller always gets
// a valid circuit and knows which parts of it are best-effort.
//
// Cancellation is separate and hard: a Done context makes Map return
// its error promptly, with no circuit. Both signals reach the solve
// the same way — a governor charged for every DP node's subset rows
// before the node is solved panics with *solveAbort, which solveDP
// converts back into an error at the tree boundary.

// Budget bounds the exhaustive decomposition search. The zero value
// means unlimited. Budgets never make a mapping fail: exhausted trees
// fall back per-tree to StrategyBinPack and are listed in
// Result.Degraded.
type Budget struct {
	// WorkUnits caps the search effort per tree, measured in DP work
	// units (roughly one unit per decomposition candidate examined).
	// 0 means unlimited. A generous, never-exhausted budget leaves the
	// mapping byte-identical to an unbudgeted run.
	WorkUnits int64
	// WallClock is a soft deadline for the whole Map call, measured
	// from its start. Once it passes, the tree being solved and every
	// tree after it degrade to bin packing. 0 means none. Unlike a
	// context deadline, passing it still yields a valid circuit —
	// but which trees degrade depends on machine speed, so runs are
	// not reproducible once it triggers.
	WallClock time.Duration
}

func (b Budget) active() bool { return b.WorkUnits > 0 || b.WallClock > 0 }

// govCheckInterval is how many work units a governor accumulates
// between deadline/cancellation probes; it keeps time.Now and ctx.Err
// off the per-row charges.
const govCheckInterval = 8192

// governor meters one tree solve. It is single-goroutine (each solve
// creates its own) and nil-safe: a nil governor is an unmetered solve.
type governor struct {
	ctx        context.Context // nil = never cancelled
	limit      int64           // per-tree work cap; 0 = unlimited
	deadline   time.Time       // whole-run soft deadline; zero = none
	units      int64
	sinceCheck int64
}

// solveAbort is the panic payload that unwinds an in-progress DP solve;
// solveDP converts it back into its error.
type solveAbort struct{ err error }

// charge adds n work units and, every govCheckInterval units, probes
// the cancellation and budget conditions, panicking with *solveAbort
// when one has tripped.
func (g *governor) charge(n int64) {
	if g == nil {
		return
	}
	g.units += n
	g.sinceCheck += n
	if g.sinceCheck < govCheckInterval {
		return
	}
	g.sinceCheck = 0
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			panic(&solveAbort{err})
		}
	}
	if g.limit > 0 && g.units > g.limit {
		panic(&solveAbort{fmt.Errorf("tree exceeded %d work units: %w", g.limit, cerrs.ErrBudgetExhausted)})
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		panic(&solveAbort{fmt.Errorf("wall-clock budget passed: %w", cerrs.ErrBudgetExhausted)})
	}
}

// chargeSubsets charges the search effort of one node with f fanins:
// one row per nonempty fanin subset S, (K+1)^2 units plus (K-1)*2^|S|
// with the decomposition search on, in ascending subset order. A
// governor that probes only cancellation takes the total at once (the
// sum of 2^|S| over all subsets is 3^f); one with a work limit or a
// deadline is charged row by row, because where its probes fall decides
// which trees degrade.
func (g *governor) chargeSubsets(f, K int, decomp bool) {
	if g == nil {
		return
	}
	row := int64((K + 1) * (K + 1))
	if g.limit == 0 && g.deadline.IsZero() {
		n := (int64(1)<<uint(f) - 1) * row
		if decomp {
			pow3 := int64(1)
			for i := 0; i < f; i++ {
				pow3 *= 3
			}
			n += int64(K-1) * (pow3 - 1)
		}
		g.charge(n)
		return
	}
	for s := uint32(1); s < uint32(1)<<uint(f); s++ {
		n := row
		if decomp {
			n += int64(K-1) << uint(bits.OnesCount32(s))
		}
		g.charge(n)
	}
}

// solveDP runs one metered tree solve, converting a governor abort back
// into an error. Any other panic propagates to the caller's recovery
// boundary (the worker pool or the public API guard).
func solveDP(a *dpArena, f *forest.Forest, root *network.Node, opts Options, gov *governor) (dp *nodeDP, err error) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(*solveAbort)
			if !ok {
				panic(r)
			}
			dp, err = nil, ab.err
		}
	}()
	fireFaultHook("solve", int(root.ID))
	return buildDPIn(a, f, root, opts, gov), nil
}

// solveDepthDP is solveDP for the depth-objective DP.
func solveDepthDP(f *forest.Forest, root *network.Node, opts Options, leafArr func(*network.Node) int32, gov *governor) (ds *depthState, err error) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(*solveAbort)
			if !ok {
				panic(r)
			}
			ds, err = nil, ab.err
		}
	}()
	fireFaultHook("solve", int(root.ID))
	return buildDepthDP(f, root, opts, leafArr, gov), nil
}
