// Package obs is the mapper's observability layer: a zero-dependency
// event stream threaded through the mapping pipeline via
// core.Options.Observer. The pipeline emits structured Events — phase
// boundaries, per-tree solves with their search effort, memo hits and
// misses, budget trips and degradations, arena statistics — to a
// pluggable Observer sink. Shipped sinks: the nil Observer (the no-op
// default; the hot path guards every emission with a nil check and
// allocates nothing), Collector (in-memory, aggregated into a Report),
// and JSONL (a streaming trace writer).
//
// The contract every instrumentation site honors: observability never
// perturbs the mapping. Sinks only receive data; the emitted circuit is
// byte-identical with or without an observer attached, at every worker
// count and Budget. Sinks must be safe for concurrent use — the solve
// pool emits from worker goroutines — and should return quickly; a slow
// sink slows the mapper but cannot change its output.
package obs

import (
	"fmt"
	"time"
)

// Kind identifies what an Event records.
type Kind uint8

const (
	// KindMapStart opens a mapping run. K is the LUT input count,
	// N the network's node count.
	KindMapStart Kind = iota
	// KindMapEnd closes a mapping run. Cost is the final LUT count,
	// Depth the circuit depth, N the tree count.
	KindMapEnd
	// KindPhaseStart opens a pipeline phase (Phase names it).
	KindPhaseStart
	// KindPhaseEnd closes a phase; Units is its wall time in
	// nanoseconds, so a report needs no start/end pairing.
	KindPhaseEnd
	// KindTreeSolve records one tree DP solve: Tree is the root name,
	// Units the work units the governor metered, Cost the tree's
	// optimal LUT count.
	KindTreeSolve
	// KindMemoHit records a tree whose DP was reused from a
	// structurally identical tree solved earlier in the same run.
	// Cost is the shared solve's LUT count.
	KindMemoHit
	// KindBudgetExhausted records a solve that tripped its search
	// budget; Units carries the budget's work-unit limit.
	KindBudgetExhausted
	// KindTreeDegraded records a tree remapped with the bin-packing
	// strategy after budget exhaustion; Cost is the bin-packed count.
	KindTreeDegraded
	// KindLUT describes one emitted lookup table at the end of the run:
	// Tree is the LUT name, N its used input count, Depth its level.
	KindLUT
	// KindArenaStats reports the run's DP arena usage: N arenas were
	// checked out, holding Units bytes of slab memory.
	KindArenaStats
	// KindDupAccepted records a profitable duplication committed by the
	// cost-aware duplication search; Tree is the duplicated node.
	KindDupAccepted
	// KindCutsEnumerated closes the cut engine's enumeration pass:
	// N is the gate count enumerated over, Units the cuts kept across
	// all priority lists, Cost the candidates discarded by signature
	// dominance pruning.
	KindCutsEnumerated
	// KindCutListEvict records priority-list evictions: Units is the
	// number of non-dominated candidate cuts dropped beyond the
	// CutsPerNode bound during enumeration.
	KindCutListEvict
	// KindAreaFlowRound closes one area-recovery iteration of the cut
	// engine's cover selection: N is the round number (1-based), Cost
	// the cover size (LUT count) after the round.
	KindAreaFlowRound
)

var kindNames = [...]string{
	KindMapStart:        "map-start",
	KindMapEnd:          "map-end",
	KindPhaseStart:      "phase-start",
	KindPhaseEnd:        "phase-end",
	KindTreeSolve:       "tree-solve",
	KindMemoHit:         "memo-hit",
	KindBudgetExhausted: "budget-exhausted",
	KindTreeDegraded:    "tree-degraded",
	KindLUT:             "lut",
	KindArenaStats:      "arena-stats",
	KindDupAccepted:     "dup-accepted",
	KindCutsEnumerated:  "cuts-enumerated",
	KindCutListEvict:    "cut-evictions",
	KindAreaFlowRound:   "area-flow-round",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, keeping JSONL traces
// readable without a decoder ring.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form written by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one observation from the mapping pipeline. The struct is
// flat and field meanings are per-Kind (documented on the constants),
// so events stream as single JSON lines and pass through channels and
// slices without indirection.
type Event struct {
	Kind  Kind      `json:"kind"`
	Time  time.Time `json:"time"`
	Phase string    `json:"phase,omitempty"`
	Tree  string    `json:"tree,omitempty"`
	K     int       `json:"k,omitempty"`
	Units int64     `json:"units,omitempty"`
	Cost  int       `json:"cost,omitempty"`
	Depth int       `json:"depth,omitempty"`
	N     int       `json:"n,omitempty"`
	// Dur is the wall time of the work the event closes: a tree-solve
	// carries its DP solve duration (Time is the solve's end). Zero for
	// kinds that record an instant, and for solves observed on paths
	// that do not meter wall time.
	Dur time.Duration `json:"dur,omitempty"`
}

// Observer receives pipeline events. Implementations must tolerate
// concurrent calls (worker goroutines emit during the parallel DP
// prepass) and must not retain the Event beyond the call unless they
// copy it — it is delivered by value, so retaining a copy is the
// natural thing anyway.
type Observer interface {
	Observe(Event)
}

// Func adapts a plain function to the Observer interface.
type Func func(Event)

// Observe calls f.
func (f Func) Observe(e Event) { f(e) }

// Multi fans every event out to each sink in order.
type Multi []Observer

// Observe delivers e to every non-nil sink.
func (m Multi) Observe(e Event) {
	for _, o := range m {
		if o != nil {
			o.Observe(e)
		}
	}
}
