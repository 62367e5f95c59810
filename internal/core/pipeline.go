package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"chortle/internal/cerrs"
	"chortle/internal/forest"
	"chortle/internal/network"
)

// The tree-solving pipeline. Tree DPs are independent under the default
// strategy and area objective, so a bounded worker pool (GOMAXPROCS
// workers, one arena each) solves one DP per *distinct* tree shape, and
// reconstruction rebinds the shared tables to each duplicate tree.
// Reconstruction itself stays sequential, so the emitted circuit is
// byte-identical whatever the worker count.
//
// The pipeline is also the execution layer's resilience boundary: every
// pool run observes context cancellation between items (and, through
// the per-solve governors, inside a solve), and a panicking worker is
// recovered into an error — the pool always drains its goroutines and
// the per-Map arenas are always returned, whatever kills the run.

// mapCtx carries the per-Map performance and control machinery: the
// recycled arenas, the shape cache, each root's shape entry, and the
// cancellation/budget state. The shape cache exists only for the
// exhaustive-strategy area objective (solveShapes builds it); the
// bin-packing and depth paths keep their own state and borrow only the
// governors.
type mapCtx struct {
	opts Options
	f    *forest.Forest
	seed uint64

	// tr emits observability events (no-op when opts.Observer is nil).
	tr tracer

	// ctx is the caller's cancellation signal (never nil; Background
	// when the caller used the context-free API).
	ctx context.Context
	// deadline is the soft wall-clock budget boundary; zero when no
	// WallClock budget is set. Trees solved past it degrade.
	deadline time.Time

	// cache is the run's shape memo, backed by Options.SharedCache when
	// that is set and eligible; shapes maps every tree root to its
	// shape's entry. Both are nil until solveShapes runs.
	cache  *tieredShapeCache
	shapes map[*network.Node]*shapeEntry

	seqArena *dpArena
	mu       sync.Mutex // guards arenas during a pool run
	arenas   []*dpArena
}

func newMapCtx(ctx context.Context, f *forest.Forest, opts Options) *mapCtx {
	mc := &mapCtx{opts: opts, f: f, ctx: ctx, seed: shapeSeed(opts), seqArena: acquireArena(), tr: tracer{opts.Observer}}
	if opts.Budget.WallClock > 0 {
		mc.deadline = time.Now().Add(opts.Budget.WallClock)
	}
	mc.arenas = append(mc.arenas, mc.seqArena)
	return mc
}

// newGov creates the per-solve governor wiring one tree solve to the
// run's cancellation and budget state.
func (mc *mapCtx) newGov() *governor {
	return &governor{ctx: mc.ctx, limit: mc.opts.Budget.WorkUnits, deadline: mc.deadline}
}

// release returns every arena to the pool. No nodeDP reached through the
// context may be used afterwards.
func (mc *mapCtx) release() {
	if mc.tr.on() && len(mc.arenas) > 0 {
		var bytes int64
		for _, a := range mc.arenas {
			bytes += a.slabBytes()
		}
		mc.tr.arenaStats(len(mc.arenas), bytes)
	}
	for _, a := range mc.arenas {
		a.release()
	}
	mc.arenas = nil
}

// workerArena hands each pool worker its own arena, registered with the
// context so the slabs live until the whole Map completes (and are
// returned by release even when the worker dies).
func (mc *mapCtx) workerArena() *dpArena {
	a := acquireArena()
	mc.mu.Lock()
	mc.arenas = append(mc.arenas, a)
	mc.mu.Unlock()
	return a
}

// runPool executes fn(arena, i) for i in [0, n) on a bounded worker
// pool and returns the first error any item produced. The pool drains
// unconditionally: cancellation and item errors stop further pickup but
// every started goroutine is joined before runPool returns, and a
// panicking worker is recovered into a *cerrs.PanicError instead of
// crashing the process. The WaitGroup forms the happens-before edge
// that publishes the workers' writes to the caller.
func (mc *mapCtx) runPool(n int, fn func(a *dpArena, i int) error) error {
	if n == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := mc.ctx.Err(); err != nil {
				return err
			}
			fireFaultHook("worker", i)
			if err := fn(mc.seqArena, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// A solveAbort escaping here means fn skipped the
					// solveDP boundary; keep its error rather than
					// reporting a panic.
					if ab, ok := r.(*solveAbort); ok {
						fail(ab.err)
						return
					}
					fail(&cerrs.PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			a := mc.workerArena()
			for {
				if stop.Load() {
					return
				}
				if err := mc.ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fireFaultHook("worker", i)
				if err := fn(a, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// solveShapes computes the tree DPs up front on the worker pool, one
// per distinct shape: the dedup runs on the main goroutine (O(trees)
// hashing) and builds the run's shape cache, the pool solves each new
// shape, and sequential reconstruction rebinds the tables to every
// duplicate tree. Budget-exhausted solves are recorded as degraded
// entries so reconstruction degrades those trees; cancellation or a
// worker panic aborts the whole prepass with the error.
func (mc *mapCtx) solveShapes() error {
	roots := mc.f.Roots
	// The shared tier is bypassed under a wall-clock budget: which trees
	// such a run degrades is timing-dependent, and cache warmth must
	// never change emitted bytes.
	var shared *SharedShapeCache
	if mc.opts.Budget.WallClock == 0 {
		shared = mc.opts.SharedCache
	}
	mc.cache = newTieredShapeCache(shared, mc.f, mc.seed)
	mc.shapes = make(map[*network.Node]*shapeEntry, len(roots))
	var reps []*network.Node
	var sis []shapeInfo
	var entries []*shapeEntry
	for _, r := range roots {
		si := treeShapeInfo(mc.f, r, mc.seed)
		e := mc.cache.lookup(mc.f, r, si)
		if e == nil {
			e = &shapeEntry{f: mc.f, rep: r}
			mc.cache.insert(si, e)
			reps = append(reps, r)
			sis = append(sis, si)
			entries = append(entries, e)
		}
		mc.shapes[r] = e
	}
	err := mc.runPool(len(reps), func(a *dpArena, i int) error {
		e := entries[i]
		gov := mc.newGov()
		start := mc.tr.now()
		dp, err := solveDP(a, mc.f, reps[i], mc.opts, gov)
		e.units = gov.units
		if err != nil {
			if errors.Is(err, cerrs.ErrBudgetExhausted) {
				e.degraded = true
				return nil
			}
			return err
		}
		mc.tr.treeSolve(reps[i].Name, gov.units, dp.bestCost, start)
		e.dp = dp
		return nil
	})
	if err != nil {
		return err
	}
	// Publication happens here, after the pool's happens-before join, so
	// the shared tier only ever sees fully solved entries.
	for i := range reps {
		mc.cache.publish(reps[i], sis[i], entries[i])
	}
	return nil
}
