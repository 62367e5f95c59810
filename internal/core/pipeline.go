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
	"chortle/internal/slab"
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
// recycled arenas, each root's shape entry, and the cancellation/budget
// state. Shape entries exist only for the exhaustive-strategy area
// objective (solveShapes builds them); the bin-packing and depth paths
// keep their own state and borrow only the governors.
type mapCtx struct {
	opts Options
	f    *forest.Forest

	// keyPrefix starts every shape key of the run (shapeKeyPrefix).
	keyPrefix []byte

	// tr emits observability events (no-op when opts.Observer is nil).
	tr tracer

	// ctx is the caller's cancellation signal (never nil; Background
	// when the caller used the context-free API).
	ctx context.Context
	// deadline is the soft wall-clock budget boundary; zero when no
	// WallClock budget is set. Trees solved past it degrade.
	deadline time.Time

	// shapes holds each tree's shape entry, in f.Roots order; nil until
	// solveShapes runs. cacheHits and cacheMisses count the distinct
	// shapes it resolved from, respectively missed in, the shared tier
	// (both zero without one).
	shapes                 []*shapeEntry
	cacheHits, cacheMisses int

	seqArena *dpArena
	mu       sync.Mutex // guards arenas during a pool run
	arenas   []*dpArena
}

func newMapCtx(ctx context.Context, f *forest.Forest, opts Options) *mapCtx {
	mc := &mapCtx{opts: opts, f: f, ctx: ctx, keyPrefix: shapeKeyPrefix(opts), seqArena: acquireArena(), tr: newTracer(opts.Observer)}
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
	if mc.tr.On() && len(mc.arenas) > 0 {
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
// per distinct shape key: the dedup runs on the main goroutine (one key
// per tree, one map probe each), the pool solves each new shape, and
// sequential reconstruction rebinds the tables to every duplicate tree.
// A shape new to the run is looked up in the shared tier, when there is
// one, before it is solved. Budget-exhausted solves are recorded as
// degraded entries so reconstruction degrades those trees; cancellation
// or a worker panic aborts the whole prepass with the error.
func (mc *mapCtx) solveShapes() error {
	roots := mc.f.Roots
	// The shared tier is bypassed under a wall-clock budget: which trees
	// such a run degrades is timing-dependent, and cache warmth must
	// never change emitted bytes.
	var shared *SharedShapeCache
	if mc.opts.Budget.WallClock == 0 {
		shared = mc.opts.SharedCache
	}
	memo := make(map[string]*shapeEntry, len(roots))
	mc.shapes = make([]*shapeEntry, len(roots))
	var (
		entries   slab.Slab[shapeEntry]
		keys      slab.Names // the memo's keys, one allocation per chunk
		key       []byte     // the current tree's key, reused
		solve     []*shapeEntry
		solveKeys []string // solve[i]'s key, for publication
	)
	for i, r := range roots {
		key = appendShapeKey(key[:0], mc.f, r, mc.keyPrefix)
		e := memo[string(key)]
		if e == nil {
			k := keys.CopyBytes(key)
			e = entries.New()
			e.rep = r
			memo[k] = e
			if shared != nil {
				if e.dp = shared.lookup(k); e.dp != nil {
					// A frozen shape forces a rebind even for this
					// run's first instance.
					e.frozen = true
					mc.cacheHits++
				} else {
					mc.cacheMisses++
				}
			}
			if e.dp == nil {
				solve = append(solve, e)
				solveKeys = append(solveKeys, k)
			}
		}
		mc.shapes[i] = e
	}
	err := mc.runPool(len(solve), func(a *dpArena, i int) error {
		e := solve[i]
		gov := mc.newGov()
		start := mc.tr.now()
		dp, err := solveDP(a, mc.f, e.rep, mc.opts, gov)
		e.units = gov.units
		if err != nil {
			if errors.Is(err, cerrs.ErrBudgetExhausted) {
				e.degraded = true
				return nil
			}
			return err
		}
		mc.tr.treeSolve(e.rep.Name, gov.units, dp.bestCost, start)
		e.dp = dp
		return nil
	})
	if err != nil {
		return err
	}
	// Publication happens here, after the pool's happens-before join, so
	// the shared tier only ever sees fully solved entries.
	if shared != nil {
		for i, e := range solve {
			shared.publish(solveKeys[i], e)
		}
	}
	return nil
}

// predictedLUTs is the number of LUTs reconstruction will emit for the
// trees solveShapes solved: the sum of their shapes' best costs.
// Degraded and unmappable trees count nothing.
func (mc *mapCtx) predictedLUTs() int {
	n := 0
	for _, e := range mc.shapes {
		if e.dp != nil && e.dp.bestCost < infinity {
			n += int(e.dp.bestCost)
		}
	}
	return n
}
