package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"chortle/internal/cerrs"
	"chortle/internal/network"
	"chortle/internal/verify"
)

// Fault-injection tests for the execution layer: a worker that panics
// or a context cancelled in the middle of a mapping must never leak a
// goroutine or an arena, and must surface as an ordinary error.

// waitGoroutines waits for the goroutine count to settle back to at
// most base (the runtime needs a moment to retire exiting goroutines).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > %d at baseline\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkArenas asserts every arena checked out during the test was
// returned to the pool.
func checkArenas(t *testing.T, base int64) {
	t.Helper()
	if n := liveArenas(); n != base {
		t.Fatalf("arenas leaked: %d live, baseline %d", n, base)
	}
}

func withFaultHook(t *testing.T, h func(site string, i int)) {
	t.Helper()
	FaultHook = h
	t.Cleanup(func() { FaultHook = nil })
}

// TestWorkerPanicRecovered injects a panic into a pool worker and
// checks that Map reports it as an error (not a crash), joins every
// worker, and returns all arenas.
func TestWorkerPanicRecovered(t *testing.T) {
	setProcs(t, 4) // force the multi-worker pool path

	withFaultHook(t, func(site string, i int) {
		if site == "worker" && i == 1 {
			panic("injected worker fault")
		}
	})

	baseG := runtime.NumGoroutine()
	baseA := liveArenas()
	res, err := Map(figure1(), DefaultOptions(4))
	if err == nil {
		t.Fatalf("injected worker panic did not surface: res=%+v", res)
	}
	var pe *cerrs.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("worker panic surfaced as %T (%v), want *cerrs.PanicError", err, err)
	}
	if pe.Value != "injected worker fault" {
		t.Fatalf("panic value = %v, want the injected fault", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic carries no stack")
	}
	waitGoroutines(t, baseG)
	checkArenas(t, baseA)
}

// TestFaultHookCancellation cancels the context from inside a tree
// solve and checks that MapCtx returns ctx.Err() with everything
// cleaned up.
func TestFaultHookCancellation(t *testing.T) {
	setProcs(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withFaultHook(t, func(site string, i int) {
		if site == "solve" {
			cancel() // fires mid-map, before the solve's first charge
		}
	})

	baseG := runtime.NumGoroutine()
	baseA := liveArenas()
	res, err := MapCtx(ctx, figure1(), DefaultOptions(4))
	if err == nil {
		t.Fatalf("mid-map cancellation returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-map cancellation returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseG)
	checkArenas(t, baseA)
}

// TestPreCancelledContext: an already-dead context must fail fast at
// every worker count.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nw := figure1()
	forEachProcs(t, func(procs int) {
		baseA := liveArenas()
		if _, err := MapCtx(ctx, nw, DefaultOptions(4)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: got %v, want context.Canceled", procs, err)
		}
		checkArenas(t, baseA)
	})
}

// TestBudgetDegradesToBinPack: a tree too big for its work budget must
// be remapped with the bin-packing strategy — the result is still a
// correct circuit and the tree is reported in Degraded.
func TestBudgetDegradesToBinPack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw := mkTree(rng, network.OpAnd, 70)
	forEachProcs(t, func(procs int) {
		opts := DefaultOptions(5)
		opts.Budget.WorkUnits = 1
		baseA := liveArenas()
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("%d workers: budgeted map failed: %v", procs, err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("%d workers: 1-unit budget did not degrade any tree", procs)
		}
		if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, 1); err != nil {
			t.Fatalf("%d workers: degraded circuit wrong: %v", procs, err)
		}
		checkArenas(t, baseA)
	})
}

// TestWallClockBudgetDegrades: an immediately-expired wall-clock budget
// degrades every tree but still yields a correct circuit.
func TestWallClockBudgetDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := mkTree(rng, network.OpOr, 70)
	opts := DefaultOptions(5)
	opts.Budget.WallClock = time.Nanosecond
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatalf("wall-clock budgeted map failed: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("expired wall-clock budget did not degrade any tree")
	}
	if err := verify.NetworkVsCircuit(nw, res.Circuit, 16, 1); err != nil {
		t.Fatalf("degraded circuit wrong: %v", err)
	}
}

// TestGenerousBudgetNoDegradation: a budget that is never exhausted
// must not alter the result or report degradations.
func TestGenerousBudgetNoDegradation(t *testing.T) {
	nw := figure1()
	opts := DefaultOptions(4)
	opts.Budget.WorkUnits = 1 << 40
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Fatalf("generous budget degraded trees: %v", res.Degraded)
	}
	ref, err := Map(nw, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs != ref.LUTs {
		t.Fatalf("budgeted LUTs %d != unbudgeted %d", res.LUTs, ref.LUTs)
	}
}
