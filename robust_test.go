package chortle

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"chortle/internal/core"
	"chortle/internal/network"
)

// Robustness contract of the public API: prompt cancellation, graceful
// budget degradation, structured sentinel errors, and internal panics
// recovered into *InternalError — never a crash.

// TestCancelledContextFastReturn: handing MapCtx an already-dead
// context must fail in well under 100ms even on the suite's largest
// circuit, returning context.Canceled and leaking no goroutines.
func TestCancelledContextFastReturn(t *testing.T) {
	nw, err := BenchmarkNetwork("des")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseG := runtime.NumGoroutine()
	start := time.Now()
	res, err := MapCtx(ctx, nw, DefaultOptions(5))
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got res=%v err=%v, want nil result and context.Canceled", res, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled MapCtx took %s, want < 100ms", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseG {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > %d at baseline", runtime.NumGoroutine(), baseG)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMidMapCancellation: a context that dies while the DP pool is
// running must abort the mapping with context.DeadlineExceeded.
func TestMidMapCancellation(t *testing.T) {
	nw, err := BenchmarkNetwork("des")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := MapCtx(ctx, nw, DefaultOptions(5))
	if err == nil {
		// The map beat the deadline; nothing to assert beyond validity.
		if res == nil {
			t.Fatal("nil result without error")
		}
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestBudgetedMapDegradesAndVerifies: a starvation budget on a real
// benchmark must populate Result.Degraded yet still emit a circuit
// that simulates identically to the source network.
func TestBudgetedMapDegradesAndVerifies(t *testing.T) {
	nw, err := BenchmarkNetwork("9symml")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(5)
	opts.Budget.WorkUnits = 1
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatalf("budgeted map failed: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("starvation budget did not degrade any tree")
	}
	if err := Verify(nw, res.Circuit, 16, 1); err != nil {
		t.Fatalf("degraded circuit wrong: %v", err)
	}
}

// TestInternalErrorFromWorkerPanic: a panic inside a pool worker must
// surface from the public API as *InternalError with a stack, not as a
// process crash.
func TestInternalErrorFromWorkerPanic(t *testing.T) {
	setProcs(t, 4)
	core.FaultHook = func(site string, i int) {
		if site == "worker" {
			panic("injected fault")
		}
	}
	defer func() { core.FaultHook = nil }()

	nw, err := BenchmarkNetwork("9symml")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Map(nw, DefaultOptions(4))
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("worker panic surfaced as %T (%v), want *InternalError", err, err)
	}
	if ie.Value != "injected fault" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError{Value: %v, len(Stack): %d}, want injected value and a stack",
			ie.Value, len(ie.Stack))
	}
}

// TestSentinelErrors: user-input failure conditions must classify with
// errors.Is against the exported sentinels, whichever layer detects
// them.
func TestSentinelErrors(t *testing.T) {
	nw, err := ReadBLIF(strings.NewReader(adderBLIF))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad K", func(t *testing.T) {
		if _, err := Map(nw, DefaultOptions(99)); !errors.Is(err, ErrBadK) {
			t.Fatalf("K=99: got %v, want ErrBadK", err)
		}
	})

	t.Run("cycle", func(t *testing.T) {
		cyc := network.New("cyc")
		a := cyc.AddInput("a")
		g1 := cyc.AddGate("g1", network.OpAnd, network.Fanin{Node: a})
		g2 := cyc.AddGate("g2", network.OpOr, network.Fanin{Node: g1})
		g1.Fanins = append(g1.Fanins, network.Fanin{Node: g2})
		cyc.MarkOutput("y", g2, false)
		if _, err := Map(cyc, DefaultOptions(4)); !errors.Is(err, ErrCycle) {
			t.Fatalf("cyclic network: got %v, want ErrCycle", err)
		}
	})

	// Map validates its input once, before it picks an engine, and the
	// baseline mapper checks its own.
	t.Run("cycle, other engines", func(t *testing.T) {
		cyc := network.New("cyc")
		a := cyc.AddInput("a")
		g1 := cyc.AddGate("g1", network.OpAnd, network.Fanin{Node: a})
		g2 := cyc.AddGate("g2", network.OpOr, network.Fanin{Node: g1})
		g1.Fanins = append(g1.Fanins, network.Fanin{Node: g2})
		cyc.MarkOutput("y", g2, false)
		for _, e := range []Engine{EngineCut, EngineMIS} {
			opts := DefaultOptions(4)
			opts.Engine = e
			if _, err := Map(cyc, opts); !errors.Is(err, ErrCycle) {
				t.Fatalf("engine %v: got %v, want ErrCycle", e, err)
			}
		}
		if _, err := MapBaseline(cyc, 4); !errors.Is(err, ErrCycle) {
			t.Fatalf("MapBaseline: got %v, want ErrCycle", err)
		}
	})

	t.Run("blif duplicate", func(t *testing.T) {
		src := ".model d\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n"
		if _, err := ReadBLIF(strings.NewReader(src)); !errors.Is(err, ErrDuplicateName) {
			t.Fatalf("duplicate .names: got %v, want ErrDuplicateName", err)
		}
	})

	t.Run("blif cycle", func(t *testing.T) {
		src := ".model c\n.inputs a\n.outputs y\n.names a x y\n11 1\n.names a y x\n11 1\n.end\n"
		if _, err := ReadBLIF(strings.NewReader(src)); !errors.Is(err, ErrCycle) {
			t.Fatalf("cyclic model: got %v, want ErrCycle", err)
		}
	})

	t.Run("pla arity", func(t *testing.T) {
		src := ".i 3\n.o 1\n11 1\n.e\n"
		if _, err := ReadPLA(strings.NewReader(src)); !errors.Is(err, ErrArityMismatch) {
			t.Fatalf("short cube: got %v, want ErrArityMismatch", err)
		}
	})

	t.Run("pla duplicate label", func(t *testing.T) {
		src := ".i 2\n.o 1\n.ilb a a\n.ob y\n11 1\n.e\n"
		if _, err := ReadPLA(strings.NewReader(src)); !errors.Is(err, ErrDuplicateName) {
			t.Fatalf("duplicate label: got %v, want ErrDuplicateName", err)
		}
	})
}
