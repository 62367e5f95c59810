// Package chortle is a from-scratch reproduction of the Chortle
// technology mapper for lookup table-based FPGAs (Francis, Rose, Chung,
// DAC 1990). It maps optimized multi-level Boolean networks into
// circuits of K-input lookup tables, minimizing LUT count, and ships
// with everything the paper's evaluation needs: a BLIF front end, a
// mini-MIS logic optimizer, a MIS II-style library mapper as the
// baseline, the MCNC-89-profile benchmark suite, and a harness that
// regenerates the paper's Tables 1-4.
//
// Quick start:
//
//	nw, _ := chortle.ReadBLIF(file)
//	res, _ := chortle.Map(nw, chortle.DefaultOptions(4))
//	fmt.Println(res.LUTs)
//	res.Circuit.WriteBLIF(os.Stdout)
package chortle

import (
	"context"
	"io"

	"chortle/internal/blif"
	"chortle/internal/core"
	"chortle/internal/lut"
	"chortle/internal/mislib"
	"chortle/internal/mismap"
	"chortle/internal/network"
	"chortle/internal/obs"
	"chortle/internal/opt"
	"chortle/internal/pla"
	"chortle/internal/shapecache"
	"chortle/internal/verify"
)

// Network is a technology-independent Boolean network: a DAG of AND/OR
// nodes with polarized edges, the mapper's input representation.
type Network = network.Network

// Circuit is a mapped netlist of K-input lookup tables, each carrying
// its programmed truth table.
type Circuit = lut.Circuit

// Options configures the Chortle mapper (see DefaultOptions).
type Options = core.Options

// Budget bounds the exhaustive decomposition search (Options.Budget):
// per-tree work units and/or a soft wall-clock deadline. Exhausted
// trees degrade to StrategyBinPack and are listed in Result.Degraded —
// a budgeted mapping always produces a valid circuit.
type Budget = core.Budget

// Result is a mapping outcome: the circuit plus area statistics, and —
// for budgeted runs — the list of trees that degraded to bin packing.
type Result = core.Result

// DefaultOptions returns the paper's configuration for K-input LUTs:
// full decomposition search with node splitting above fanin ten.
func DefaultOptions(k int) Options { return core.DefaultOptions(k) }

// Engine selects the mapping algorithm (Options.Engine): the paper's
// fanout-free-tree DP, the MIS II-style baseline coverer, or the
// priority-cut DAG mapper. All engines emit the same Circuit
// representation, so Verify, simulation and provenance work unchanged.
type Engine = core.Engine

// Mapping engines.
const (
	// EngineTree is the paper's algorithm (the default).
	EngineTree = core.EngineTree
	// EngineMIS is the MIS II-style baseline run through Map.
	EngineMIS = core.EngineMIS
	// EngineCut is the priority-cut DAG mapper: K-feasible cut
	// enumeration with area-flow cover selection, the engine that sees
	// through reconvergent fanout (internal/cut).
	EngineCut = core.EngineCut
)

// ParseEngine resolves an engine name ("tree", "mis", "cut"; empty
// means tree) for -engine style flags.
func ParseEngine(s string) (Engine, error) { return core.ParseEngine(s) }

// Strategy selects the per-node decomposition search (see Options).
type Strategy = core.Strategy

// Decomposition strategies: the paper's exhaustive search (optimal per
// tree) and the Chortle-crf-style first-fit-decreasing bin packing
// (faster, unbounded fanin).
const (
	StrategyExhaustive = core.StrategyExhaustive
	StrategyBinPack    = core.StrategyBinPack
)

// ReadBLIF parses a combinational BLIF model into a Boolean network.
// Malformed input is rejected with a structured error (see the
// sentinels in errors.go); parser bugs surface as *InternalError, never
// as a panic.
func ReadBLIF(r io.Reader) (nw *Network, err error) {
	defer guard(&err)
	return blif.Read(r)
}

// ReadPLA parses an espresso-format two-level PLA (the native format of
// the MCNC benchmarks) and lowers its factored form to a Boolean
// network. Like ReadBLIF, it is panic-free: malformed input yields a
// structured error, parser bugs an *InternalError.
func ReadPLA(r io.Reader) (nw *Network, err error) {
	defer guard(&err)
	p, err := pla.Read(r)
	if err != nil {
		return nil, err
	}
	nt, err := p.ToNet("")
	if err != nil {
		return nil, err
	}
	return nt.Lower()
}

// WriteBLIF emits a Boolean network as BLIF.
func WriteBLIF(w io.Writer, nw *Network) error { return blif.Write(w, nw) }

// Map runs the Chortle algorithm: optimal (per fanout-free tree)
// covering of the network with K-input lookup tables. It is
// MapCtx(context.Background(), nw, opts).
func Map(nw *Network, opts Options) (*Result, error) {
	return MapCtx(context.Background(), nw, opts)
}

// MapCtx is Map under a context.Context. Cancellation or deadline
// expiry aborts the mapping promptly — the parallel pipeline observes
// the context between trees and the DP inner loops observe it every
// few thousand work units — returning ctx.Err() with all worker
// goroutines joined and all internal arenas returned to their pool.
//
// Search budgets (Options.Budget) are orthogonal to the context: a
// budget never fails the call, it degrades over-budget trees to the
// bin-packing strategy and lists them in Result.Degraded.
//
// MapCtx is panic-free: invalid inputs return structured errors
// (errors.Is-able against ErrCycle, ErrDuplicateName, ErrBadK, ...);
// an internal panic — in the calling goroutine or in a worker — is
// recovered into an *InternalError carrying its stack.
func MapCtx(ctx context.Context, nw *Network, opts Options) (res *Result, err error) {
	defer guard(&err)
	res, err = core.MapCtx(ctx, nw, opts)
	return res, wrapInternal(err)
}

// BaselineResult is the outcome of the MIS II-style baseline mapper.
type BaselineResult = mismap.Result

// MapBaseline maps the network with the paper's baseline: a DAGON/MIS-
// style structural tree coverer using the Section 4.1 library for K
// (complete for K = 2, 3; level-0-kernel incomplete for K = 4, 5).
func MapBaseline(nw *Network, k int) (res *BaselineResult, err error) {
	defer guard(&err)
	lib, err := mislib.ForK(k)
	if err != nil {
		return nil, err
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return mismap.Map(nw, lib)
}

// Optimize runs the mini-MIS standard script on the network and returns
// the re-optimized equivalent — the preprocessing the paper applies to
// every benchmark before mapping ("optimized by the standard MIS II
// script").
func Optimize(nw *Network) (out *Network, err error) {
	defer guard(&err)
	nt, err := opt.FromNetwork(nw)
	if err != nil {
		return nil, err
	}
	nt.Optimize(opt.DefaultScript())
	return nt.Lower()
}

// Verify checks that a mapped circuit implements its source network:
// exhaustively up to 16 primary inputs, otherwise with the given number
// of random 64-pattern blocks.
func Verify(nw *Network, ckt *Circuit, patterns int, seed int64) error {
	return verify.NetworkVsCircuit(nw, ckt, patterns, seed)
}

// VerifyNetworks checks two Boolean networks against each other with
// the same exhaustive/random simulation policy as Verify.
func VerifyNetworks(a, b *Network, patterns int, seed int64) error {
	return verify.NetworkVsNetwork(a, b, patterns, seed)
}

// MapDuplicateCostAware maps with profitable logic duplication at
// fanout nodes: each candidate duplication is accepted only when the
// tree DP proves it reduces total LUT count — the profitable form of
// the paper's future-work item (naive duplication is
// Options.DuplicateFanoutLogic). Returns the result and the number of
// duplications accepted. Slower than Map (it re-costs the network per
// candidate).
func MapDuplicateCostAware(nw *Network, opts Options) (*Result, int, error) {
	return MapDuplicateCostAwareCtx(context.Background(), nw, opts)
}

// MapDuplicateCostAwareCtx is MapDuplicateCostAware under a context.
// Cancellation aborts both the candidate search and the final mapping.
// A wall-clock budget (Options.Budget.WallClock) bounds the search
// phase: when it expires the candidates accepted so far are kept and
// the final mapping proceeds, so the call still returns a valid result.
func MapDuplicateCostAwareCtx(ctx context.Context, nw *Network, opts Options) (res *Result, accepted int, err error) {
	defer guard(&err)
	res, accepted, err = core.MapDuplicateCostAwareCtx(ctx, nw, opts)
	return res, accepted, wrapInternal(err)
}

// Observability. Setting Options.Observer streams structured events
// from every phase of a mapping run — phase boundaries, per-tree solves
// with metered work units, memo hits, budget degradations, per-LUT
// detail — to any Observer implementation. Observation is strictly
// read-only: the mapped circuit is byte-identical with or without an
// observer, and a nil Observer costs the hot path nothing.

// Event is one structured observation from a mapping run; its Kind
// determines which fields are meaningful.
type Event = obs.Event

// EventKind discriminates observability events (EventTreeSolve,
// EventMemoHit, ...).
type EventKind = obs.Kind

// Event kinds, re-exported for sinks that switch on Event.Kind.
const (
	EventMapStart        = obs.KindMapStart
	EventMapEnd          = obs.KindMapEnd
	EventPhaseStart      = obs.KindPhaseStart
	EventPhaseEnd        = obs.KindPhaseEnd
	EventTreeSolve       = obs.KindTreeSolve
	EventMemoHit         = obs.KindMemoHit
	EventBudgetExhausted = obs.KindBudgetExhausted
	EventTreeDegraded    = obs.KindTreeDegraded
	EventLUT             = obs.KindLUT
	EventArenaStats      = obs.KindArenaStats
	EventDupAccepted     = obs.KindDupAccepted
)

// Observer receives mapping events (Options.Observer). Implementations
// must tolerate concurrent calls: the parallel pipeline emits from
// worker goroutines.
type Observer = obs.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = obs.Func

// MultiObserver fans events out to several observers in order.
type MultiObserver = obs.Multi

// Collector is a concurrency-safe in-memory Observer that records every
// event and can aggregate them into a MapReport.
type Collector = obs.Collector

// MapReport aggregates an event stream into per-phase wall times, LUT
// histograms, memo hit rates, and degradation detail (see
// Collector.Report and AggregateEvents).
type MapReport = obs.Report

// AggregateEvents folds a recorded event stream into a MapReport.
func AggregateEvents(events []Event) *MapReport { return obs.Aggregate(events) }

// JSONLObserver streams each event as one JSON line to a writer (the
// cmd/chortle -trace format).
type JSONLObserver = obs.JSONL

// NewJSONLObserver returns a JSONLObserver writing to w. Check Err
// after the run for the first write error, if any.
func NewJSONLObserver(w io.Writer) *JSONLObserver { return obs.NewJSONL(w) }

// SharedCache is a process-wide, concurrency-safe cache of tree-shape
// solutions, shared across Map calls through Options.SharedCache. A
// warm cache turns the per-shape DP solve and most of reconstruction
// into O(tree) pointer work; every hit is verified against a canonical
// shape encoding before reuse, and cached state is immutable after
// publish, so any number of concurrent Map calls may share one cache.
// The emitted circuit is byte-identical with the cache warm, cold, or
// absent.
//
// A SharedCache can outlive its process: WriteSnapshot serializes the
// resident shapes to a versioned, checksummed stream and
// RestoreSnapshot loads one back, rejecting any truncated, corrupted,
// or incompatible snapshot wholesale (the cache then simply starts
// cold). Shed evicts a fraction of resident shapes under memory
// pressure. cmd/chortled wires all three into its serving loop.
type SharedCache = core.SharedShapeCache

// SharedCacheConfig bounds a SharedCache: shard count (lock striping),
// resident entry count, and accounted bytes. Zero fields take defaults
// (16 shards, 65536 entries, 256 MiB).
type SharedCacheConfig = core.SharedCacheConfig

// CacheStats is a point-in-time snapshot of a SharedCache: hit, miss,
// insert and eviction counters plus resident entry and byte totals.
type CacheStats = shapecache.Stats

// NewSharedCache returns an empty cross-run shape cache honoring cfg.
func NewSharedCache(cfg SharedCacheConfig) *SharedCache {
	return core.NewSharedShapeCache(cfg)
}

// CLBSpec describes a commercial logic block (LUT pair with a shared
// input budget) for post-mapping block packing — the paper's
// "commercial FPGA architectures" future-work direction.
type CLBSpec = lut.CLBSpec

// XC3000 is the Xilinx 3000-series block profile (5 inputs, 2 LUTs).
var XC3000 = lut.XC3000
