package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chortle"
	"chortle/client"
)

// The mapping server's HTTP surface, separated from main's wiring so
// tests can drive the handler directly.
//
//	POST /map      map a BLIF network to K-LUTs
//	GET  /healthz  liveness (503 while draining)
//	GET  /stats    shared-cache statistics as JSON
//	GET  /metrics  Prometheus text exposition
//
// /map accepts either a raw BLIF body with query parameters
// (?k=4&engine=cut&budget_work_units=N&deadline_ms=N) or, with
// Content-Type: application/json, a JSON object {"blif": "...", "k": 4,
// "engine": "cut", "budget_work_units": N, "deadline_ms": N}; JSON
// fields override query parameters. engine selects the mapping
// algorithm per request — tree (default), mis, or cut — so one fleet
// serves all three; an unknown engine is a 400.
//
// A success answers JSON with the mapped BLIF in its "blif" field,
// unless the request's Accept header names client.MapMediaType. Then
// the body is that type: the same JSON object without "blif" on one
// line, a newline, and the mapped BLIF verbatim, so neither side escapes
// or unescapes the netlist. Errors and refusals are always JSON.
//
// Admission is layered so every refusal is cheap and honest:
//
//   - Bounded queue: at most maxInflight requests map concurrently and
//     at most maxQueue more wait for a slot; beyond that is an
//     immediate 429 with Retry-After.
//   - Queue-deadline (CoDel-style): a request that waited in the queue
//     is re-checked on dequeue — if its deadline already expired it
//     answers 504 without burning the slot, and if its remaining
//     deadline cannot cover the observed p95 solve time it answers 503
//     with Retry-After instead of starting work it cannot finish.
//   - Memory-pressure valve: when the live heap crosses the configured
//     watermark the server sheds half the shared cache and stops
//     queueing (free slots still serve), recovering automatically once
//     the heap drops below ~80% of the watermark.
//   - Panic isolation: a panicking request — injected fault, bad
//     input, or mapper bug — becomes a 500 plus an incident log with a
//     stack trace, never a dead server. So does a mapper bug that
//     MapCtx reports as a *chortle.InternalError.

// serverConfig bounds one mapServer.
type serverConfig struct {
	cache       *chortle.SharedCache
	reg         *chortle.MetricsRegistry
	maxInflight int
	maxQueue    int
	defaultK    int

	// memWatermark engages the memory-pressure valve above this many
	// live heap bytes; 0 disables the valve.
	memWatermark int64

	// chaos, when non-nil, injects seeded faults (latency, panics,
	// forced evictions) into the serving path.
	chaos *chaosInjector

	// logf receives server incident and lifecycle logs; nil discards.
	logf func(format string, args ...any)

	// accessLog, when non-nil, receives one JSONL AccessRecord per
	// finished request (the -access-log flag).
	accessLog *accessLogger

	// requestRing bounds the /debug/requests recent ring (0 = 64).
	requestRing int

	// recorder, when non-nil, is the always-on flight recorder: every
	// finished request, overload decision, and lifecycle note lands in
	// its bounded ring. Nil disables recording at zero hot-path cost.
	recorder *chortle.FlightRecorder

	// slo, when non-nil, folds every response code and solve duration
	// into burn-rate accounting (the -slo flag).
	slo *chortle.SLOWatchdog

	// dumper, when non-nil, writes postmortem bundles on incident
	// triggers (the -postmortem-dir flag).
	dumper *dumper

	// profiler, when non-nil, is the continuous profiler whose on-disk
	// ring /debug/requests links and bundles include.
	profiler *profiler

	// start anchors the /stats uptime report; zero means "now".
	start time.Time
}

type mapServer struct {
	cfg serverConfig
	obs *chortle.MetricsObserver

	sem        chan struct{}
	queued     atomic.Int64
	inflight   atomic.Int64
	draining   atomic.Bool
	overloaded atomic.Bool // memory valve engaged: stop queueing, shed cache

	// solveTimes is one recent-solve window per engine: tree and cut
	// solve times differ by an order of magnitude on the same circuit,
	// so a shared ring would miscalibrate the queue-deadline drop under
	// mixed traffic. Indexed by chortle.Engine.
	solveTimes [engineCount]*latencyTracker

	// engines is the per-engine request breakdown behind /stats.
	engines [engineCount]engineBucket

	// requests backs /debug/requests: the live in-flight table and the
	// bounded recent ring.
	requests *requestTable
}

// engineCount covers tree, mis and cut.
const engineCount = 3

var engineNames = [engineCount]string{
	chortle.EngineTree: "tree",
	chortle.EngineMIS:  "mis",
	chortle.EngineCut:  "cut",
}

// engineIndex maps an engine name back to its slot; ok is false for
// the empty string (a request that never resolved an engine).
func engineIndex(name string) (int, bool) {
	for i, n := range engineNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// outcomeClasses are the access-log outcome labels /stats breaks each
// engine down by.
var outcomeClasses = []string{"2xx", "4xx", "429", "500", "503", "504", "abandoned", "5xx"}

func outcomeIndex(class string) (int, bool) {
	for i, c := range outcomeClasses {
		if c == class {
			return i, true
		}
	}
	return 0, false
}

// engineBucket tallies one engine's requests by outcome class.
type engineBucket struct {
	total    atomic.Int64
	outcomes [8]atomic.Int64 // indexed like outcomeClasses
}

// engineStatsJSON is one engine's /stats entry.
type engineStatsJSON struct {
	Requests   int64            `json:"requests"`
	Outcomes   map[string]int64 `json:"outcomes,omitempty"`
	SolveP50MS float64          `json:"solve_p50_ms"`
	SolveP95MS float64          `json:"solve_p95_ms"`
}

// serverMetrics holds the request-level series; structural interfaces
// keep cmd/chortled off the internal metrics types.
type serverMetrics struct {
	ok, clientErr, busy, serverErr   interface{ Inc() }
	timeout, panics                  interface{ Inc() }
	codelDrops, memShed, snapRejects interface{ Inc() }
	inflight                         interface{ Add(float64) }
	// duration (successful solve time) and total (end-to-end request
	// time, every outcome) carry trace-ID exemplars so a latency spike
	// in /metrics links to a concrete request in the access log.
	duration, total exemplarHistogram
}

// exemplarHistogram is the structural slice of metrics.Histogram the
// server needs: plain observations plus trace-ID exemplars.
type exemplarHistogram interface {
	Observe(time.Duration)
	ObserveWithExemplar(time.Duration, string)
}

func newMapServer(cfg serverConfig) (*mapServer, *serverMetrics) {
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	if cfg.maxQueue < 0 {
		cfg.maxQueue = 0
	}
	if cfg.defaultK == 0 {
		cfg.defaultK = 4
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	if cfg.start.IsZero() {
		cfg.start = time.Now()
	}
	s := &mapServer{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.maxInflight),
		obs:      chortle.NewMetricsObserverWithRuntime(cfg.reg),
		requests: newRequestTable(cfg.requestRing),
	}
	for i := range s.solveTimes {
		s.solveTimes[i] = newLatencyTracker(256)
	}
	m := &serverMetrics{
		ok:         cfg.reg.Counter("chortled_requests_total", "Mapping requests by outcome.", chortle.MetricsLabel{Key: "code", Value: "200"}),
		clientErr:  cfg.reg.Counter("chortled_requests_total", "Mapping requests by outcome.", chortle.MetricsLabel{Key: "code", Value: "400"}),
		busy:       cfg.reg.Counter("chortled_requests_total", "Mapping requests by outcome.", chortle.MetricsLabel{Key: "code", Value: "429"}),
		serverErr:  cfg.reg.Counter("chortled_requests_total", "Mapping requests by outcome.", chortle.MetricsLabel{Key: "code", Value: "503"}),
		timeout:    cfg.reg.Counter("chortled_requests_total", "Mapping requests by outcome.", chortle.MetricsLabel{Key: "code", Value: "504"}),
		panics:     cfg.reg.Counter("chortled_requests_total", "Mapping requests by outcome.", chortle.MetricsLabel{Key: "code", Value: "500"}),
		codelDrops: cfg.reg.Counter("chortled_queue_deadline_drops_total", "Requests dropped because the remaining deadline could not cover the observed p95 solve time."),
		memShed:    cfg.reg.Counter("chortled_memory_pressure_sheds_total", "Memory-pressure valve activations (cache shed + queue shed)."),
		snapRejects: cfg.reg.Counter("chortle_snapshot_rejected",
			"Cache snapshots rejected at restore (truncated, corrupted, or incompatible)."),
		inflight: cfg.reg.Gauge("chortled_inflight_requests", "Mapping requests currently being served."),
		duration: cfg.reg.Histogram("chortled_request_seconds", "End-to-end mapping request latency.", nil),
		total:    cfg.reg.Histogram("chortled_request_total_seconds", "Wall time from admission to response for every request, all outcomes.", nil),
	}
	cfg.reg.GaugeFunc("chortled_queued_requests", "Mapping requests waiting for an execution slot.",
		func() float64 { return float64(s.queued.Load()) })
	cfg.reg.GaugeFunc("chortled_overloaded", "1 while the memory-pressure valve is shedding queued load.",
		func() float64 {
			if s.overloaded.Load() {
				return 1
			}
			return 0
		})
	for i := range s.solveTimes {
		lt := s.solveTimes[i]
		cfg.reg.GaugeFunc("chortled_solve_p95_seconds", "Observed p95 solve time over the recent window, per engine.",
			func() float64 { return lt.p95().Seconds() },
			chortle.MetricsLabel{Key: "engine", Value: engineNames[i]})
	}
	chortle.RegisterCacheMetrics(cfg.reg, cfg.cache)
	return s, m
}

// acquire claims an execution slot, waiting in the bounded queue if all
// slots are busy. It returns a release func and true, or false when the
// queue is full (or closed by the memory valve) or the caller's context
// ended while waiting.
func (s *mapServer) acquire(ctx context.Context) (func(), bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if s.overloaded.Load() {
		// Valve engaged: free slots still serve (the fast path above),
		// but nothing new parks in the queue.
		return nil, false
	}
	if s.queued.Add(1) > int64(s.cfg.maxQueue) {
		s.queued.Add(-1)
		return nil, false
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-ctx.Done():
		return nil, false
	}
}

// latencyTracker is a fixed window of recent solve durations for the
// queue-deadline estimate. Cheap by construction: one mutex, one ring.
type latencyTracker struct {
	mu   sync.Mutex
	ring []time.Duration
	n    int // total observations
}

func newLatencyTracker(window int) *latencyTracker {
	return &latencyTracker{ring: make([]time.Duration, window)}
}

func (l *latencyTracker) observe(d time.Duration) {
	l.mu.Lock()
	l.ring[l.n%len(l.ring)] = d
	l.n++
	l.mu.Unlock()
}

// quantile estimates the p-quantile (per-cent, e.g. 95) of the recent
// window; zero until enough samples exist to say anything (8), so a
// cold server never drops on a wild guess.
func (l *latencyTracker) quantile(pct int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.n
	if size > len(l.ring) {
		size = len(l.ring)
	}
	if size < 8 {
		return 0
	}
	tmp := make([]time.Duration, size)
	copy(tmp, l.ring[:size])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := (size * pct) / 100
	if idx >= size {
		idx = size - 1
	}
	return tmp[idx]
}

func (l *latencyTracker) p95() time.Duration { return l.quantile(95) }
func (l *latencyTracker) p50() time.Duration { return l.quantile(50) }

// mapRequest is the JSON request body (all fields optional except blif).
type mapRequest struct {
	BLIF            string `json:"blif"`
	K               int    `json:"k"`
	Engine          string `json:"engine"`
	BudgetWorkUnits int64  `json:"budget_work_units"`
	DeadlineMS      int64  `json:"deadline_ms"`
}

// mapResponse is the JSON success body, and without BLIF the metadata
// line of a client.MapMediaType body.
type mapResponse struct {
	Circuit     string   `json:"circuit"`
	K           int      `json:"k"`
	Engine      string   `json:"engine"`
	LUTs        int      `json:"luts"`
	Trees       int      `json:"trees"`
	Degraded    []string `json:"degraded,omitempty"`
	CacheHits   int      `json:"cache_hits"`
	CacheMisses int      `json:"cache_misses"`
	ElapsedNS   int64    `json:"elapsed_ns"`
	BLIF        string   `json:"blif,omitempty"`
	TraceID     string   `json:"trace_id,omitempty"`
}

type errResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// recordDecision lands one overload-control decision in both places it
// must survive: the request's trace state (so the access-log line and
// the flight ring's access entry carry the canonical reason) and the
// flight ring itself (with the admission numbers that drove it). The
// trace ID is filled from the request state.
func (s *mapServer) recordDecision(st *requestState, d chortle.OverloadDecision) {
	st.noteDecision(d.Reason)
	d.Trace = st.traceID()
	s.cfg.recorder.RecordDecision(d)
}

// writeRefusal answers a load-shedding status (429/503/504) with a
// Retry-After hint so well-behaved clients back off instead of
// hammering.
func writeRefusal(w http.ResponseWriter, code int, retryAfter time.Duration, msg string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, code, errResponse{msg})
}

// maxRequestBody bounds a /map request body. bodyHint bounds how much
// of a declared Content-Length is allocated before the bytes arrive: a
// request that declares a large body and sends none holds at most that,
// a few times what its connection's own buffers cost. A longer body
// grows the buffer as it arrives.
const (
	maxRequestBody = 64 << 20
	bodyHint       = 64 << 10
)

// parseMapRequest assembles the request from query parameters and body.
// The parameters are checked in a fixed order, so a query with several
// bad ones is always refused for the same one.
func parseMapRequest(r *http.Request, defaultK int) (*mapRequest, error) {
	req := &mapRequest{K: defaultK}
	q := r.URL.Query()
	for _, p := range [...]struct {
		name string
		dst  *int64
	}{
		{"budget_work_units", &req.BudgetWorkUnits},
		{"deadline_ms", &req.DeadlineMS},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad k %q", v)
		}
		req.K = n
	}
	req.Engine = q.Get("engine")
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, bodyHint)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxRequestBody)); err != nil {
		return nil, fmt.Errorf("reading body: %v", err)
	}
	body := buf.Bytes()
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var jr mapRequest
		if err := json.Unmarshal(body, &jr); err != nil {
			return nil, fmt.Errorf("bad JSON body: %v", err)
		}
		if jr.BLIF == "" {
			return nil, errors.New("missing blif field")
		}
		req.BLIF = jr.BLIF
		if jr.K != 0 {
			req.K = jr.K
		}
		if jr.Engine != "" {
			req.Engine = jr.Engine
		}
		if jr.BudgetWorkUnits != 0 {
			req.BudgetWorkUnits = jr.BudgetWorkUnits
		}
		if jr.DeadlineMS != 0 {
			req.DeadlineMS = jr.DeadlineMS
		}
		return req, nil
	}
	if len(body) == 0 {
		return nil, errors.New("empty body (expected BLIF text or JSON)")
	}
	req.BLIF = string(body)
	return req, nil
}

// maxDeadlineMS is the largest deadline_ms whose duration fits in a
// time.Duration.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// admit checks a parsed request before it may take a queue slot and
// builds the options and deadline its solve runs with: the engine must
// parse, the options must pass the mapper's own check, and deadline_ms
// (0 = none) must be a duration. Every error is the client's to fix.
func admit(req *mapRequest) (chortle.Options, time.Duration, error) {
	eng, err := chortle.ParseEngine(req.Engine)
	if err != nil {
		return chortle.Options{}, 0, err
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > maxDeadlineMS {
		return chortle.Options{}, 0, fmt.Errorf("deadline_ms %d out of range [0,%d]", req.DeadlineMS, maxDeadlineMS)
	}
	opts := chortle.DefaultOptions(req.K)
	opts.Engine = eng
	opts.Budget.WorkUnits = req.BudgetWorkUnits
	if err := opts.Validate(); err != nil {
		return chortle.Options{}, 0, err
	}
	return opts, time.Duration(req.DeadlineMS) * time.Millisecond, nil
}

// statusRecorder remembers whether a handler already committed a
// response (so the panic isolator knows if a 500 can still be sent)
// and which status it sent (so the trace middleware can classify the
// outcome; 0 means the client went away before any response).
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
	code  int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.code = code
	}
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if !sr.wrote {
		sr.code = http.StatusOK
	}
	sr.wrote = true
	return sr.ResponseWriter.Write(b)
}

// WriteString passes s to the wrapped writer's WriteString when it has
// one, as net/http's does, so a response written as a string is not
// copied into a byte slice first.
func (sr *statusRecorder) WriteString(s string) (int, error) {
	if !sr.wrote {
		sr.code = http.StatusOK
	}
	sr.wrote = true
	return io.WriteString(sr.ResponseWriter, s)
}

// withPanicIsolation converts a panicking request into a 500 plus an
// incident log instead of a dead server. http.Server's own recovery
// would only kill the connection; this answers the client and keeps a
// stack for the operator.
func (s *mapServer) withPanicIsolation(m *serverMetrics, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				m.panics.Inc()
				s.cfg.logf("chortled: INCIDENT: panic serving %s %s: %v\n%s",
					r.Method, r.URL.Path, rec, debug.Stack())
				s.recordDecision(stateFrom(r.Context()), chortle.OverloadDecision{
					Code: http.StatusInternalServerError, Reason: chortle.ReasonPanic,
					Detail: fmt.Sprint(rec),
				})
				if !sr.wrote {
					writeJSON(sr, http.StatusInternalServerError,
						errResponse{fmt.Sprintf("internal error: %v", rec)})
				}
			}
		}()
		next(sr, r)
	}
}

func (s *mapServer) handleMap(m *serverMetrics) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := stateFrom(r.Context())
		rt := st.trace()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			st.noteErr("POST only")
			writeJSON(w, http.StatusMethodNotAllowed, errResponse{"POST only"})
			return
		}
		if s.draining.Load() {
			m.serverErr.Inc()
			st.noteErr("draining")
			s.recordDecision(st, chortle.OverloadDecision{
				Code: http.StatusServiceUnavailable, Reason: chortle.ReasonDraining,
			})
			writeRefusal(w, http.StatusServiceUnavailable, 5*time.Second, "draining")
			return
		}
		admSpan := rt.Start("admission")
		req, err := parseMapRequest(r, s.cfg.defaultK)
		if err != nil {
			admSpan.End()
			m.clientErr.Inc()
			st.noteErr(err.Error())
			writeJSON(w, http.StatusBadRequest, errResponse{err.Error()})
			return
		}
		// A request the mapper would refuse is refused before it costs a
		// queue slot or a BLIF parse; the checked options configure the
		// solve below.
		opts, deadline, err := admit(req)
		if err != nil {
			admSpan.End()
			m.clientErr.Inc()
			st.noteErr(err.Error())
			writeJSON(w, http.StatusBadRequest, errResponse{err.Error()})
			return
		}
		eng := opts.Engine
		st.setRequest(eng.String(), req.K)
		admSpan.Annotate("engine", eng.String())
		admSpan.End()
		// The request's deadline budget starts ticking at admission, so
		// queue wait counts against it.
		admitted := time.Now()

		st.setStage(stageQueued)
		queueSpan := rt.Start("queue")
		release, ok := s.acquire(r.Context())
		waited := time.Since(admitted)
		queueSpan.End()
		st.noteTimings(waited, 0, 0)
		if !ok {
			if r.Context().Err() != nil {
				return // client gone while queued
			}
			if s.overloaded.Load() {
				m.serverErr.Inc()
				st.noteErr("memory pressure")
				s.recordDecision(st, chortle.OverloadDecision{
					Code: http.StatusServiceUnavailable, Reason: chortle.ReasonMemValve,
					Engine: eng.String(), WaitNS: waited.Nanoseconds(),
				})
				writeRefusal(w, http.StatusServiceUnavailable, 2*time.Second,
					"memory pressure: queue closed, retry shortly")
				return
			}
			m.busy.Inc()
			st.noteErr("at capacity")
			s.recordDecision(st, chortle.OverloadDecision{
				Code: http.StatusTooManyRequests, Reason: chortle.ReasonQueueFull,
				Engine: eng.String(),
				Detail: fmt.Sprintf("%d in flight, %d queued", s.cfg.maxInflight, s.cfg.maxQueue),
			})
			writeRefusal(w, http.StatusTooManyRequests, time.Second,
				fmt.Sprintf("at capacity (%d in flight, %d queued)", s.cfg.maxInflight, s.cfg.maxQueue))
			return
		}
		defer release()

		// Post-dequeue admission control. The slot is held but no solve
		// work has started; both checks are O(1).
		if r.Context().Err() != nil {
			return // client gone while queued; nobody is listening
		}
		if deadline > 0 {
			remaining := deadline - waited
			if remaining <= 0 {
				m.timeout.Inc()
				st.noteErr("deadline expired in queue")
				s.recordDecision(st, chortle.OverloadDecision{
					Code: http.StatusGatewayTimeout, Reason: chortle.ReasonDeadlineExpired,
					Engine: eng.String(), WaitNS: waited.Nanoseconds(),
					RemainingNS: remaining.Nanoseconds(),
				})
				writeRefusal(w, http.StatusGatewayTimeout, time.Second,
					fmt.Sprintf("deadline (%d ms) expired after %s in queue", req.DeadlineMS, waited.Round(time.Millisecond)))
				return
			}
			// CoDel-style drop: starting a solve we cannot finish inside
			// the deadline wastes the slot and still fails the caller —
			// refuse now, while it is still cheap for both sides. The p95
			// comes from this engine's own window: tree and cut solve
			// times differ enough that a shared estimate sheds the wrong
			// requests under mixed traffic.
			if p95 := s.solveTimes[eng].p95(); p95 > 0 && remaining < p95 {
				m.serverErr.Inc()
				m.codelDrops.Inc()
				st.noteErr("remaining deadline below engine p95")
				s.recordDecision(st, chortle.OverloadDecision{
					Code: http.StatusServiceUnavailable, Reason: chortle.ReasonCoDel,
					Engine: eng.String(), WaitNS: waited.Nanoseconds(),
					RemainingNS: remaining.Nanoseconds(), P95NS: p95.Nanoseconds(),
				})
				writeRefusal(w, http.StatusServiceUnavailable, p95,
					fmt.Sprintf("remaining deadline %s below observed %s p95 solve time %s",
						remaining.Round(time.Millisecond), eng, p95.Round(time.Millisecond)))
				return
			}
		}
		m.inflight.Add(1)
		s.inflight.Add(1)
		defer func() {
			m.inflight.Add(-1)
			s.inflight.Add(-1)
		}()

		st.setStage(stageSolving)
		// Fault injection (off unless -chaos): the seeded probabilistic
		// mix plus the deterministic X-Chaos-* headers the drill uses —
		// a panic from either rides up to withPanicIsolation like any
		// real one would.
		s.cfg.chaos.forced(r)
		s.cfg.chaos.beforeSolve()

		nw, err := chortle.ReadBLIF(strings.NewReader(req.BLIF))
		if err != nil {
			m.clientErr.Inc()
			st.noteErr(err.Error())
			writeJSON(w, http.StatusBadRequest, errResponse{fmt.Sprintf("parsing BLIF: %v", err)})
			return
		}
		st.noteCircuit(nw.Name)
		opts.SharedCache = s.cfg.cache
		// The request trace's bounded collector rides beside the
		// process-wide metrics bridge, joining the engine's own phase
		// events to this request's span tree. It keeps phase ends only:
		// they are all Finish turns into spans, and a large circuit's
		// per-tree and per-LUT events would push them out of the ring.
		if reqObs := rt.Observer(); reqObs != nil {
			opts.Observer = chortle.MultiObserver{s.obs, phaseEnds{reqObs}}
		} else {
			opts.Observer = s.obs
		}

		ctx := r.Context()
		if deadline > 0 {
			remaining := deadline - time.Since(admitted)
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, remaining)
			defer cancel()
		}
		solveSpan := rt.Start("solve")
		solveSpan.Annotate("engine", eng.String())
		st.setSolveSpan(solveSpan.ID())
		start := time.Now()
		res, err := chortle.MapCtx(ctx, nw, opts)
		elapsed := time.Since(start)
		solveSpan.End()
		st.noteTimings(0, elapsed, 0)
		s.cfg.slo.ObserveSolve(elapsed)
		if err != nil {
			s.answerMapErr(w, r, m, st, eng, err)
			return
		}
		s.solveTimes[eng].observe(elapsed)
		st.noteResult(res.LUTs, res.CacheHits, res.CacheMisses)

		st.setStage(stageWriting)
		writeSpan := rt.Start("write")
		writeStart := time.Now()
		mr := mapResponse{
			Circuit:     nw.Name,
			K:           req.K,
			Engine:      eng.String(),
			LUTs:        res.LUTs,
			Trees:       res.Trees,
			Degraded:    res.Degraded,
			CacheHits:   res.CacheHits,
			CacheMisses: res.CacheMisses,
			ElapsedNS:   elapsed.Nanoseconds(),
			TraceID:     traceIDString(rt),
		}
		framed := strings.Contains(r.Header.Get("Accept"), client.MapMediaType)
		var out strings.Builder
		if framed {
			// The metadata line: Encode escapes every newline inside the
			// object and ends it with one, so that newline ends the line.
			_ = json.NewEncoder(&out).Encode(mr)
		}
		if err := res.Circuit.WriteBLIF(&out); err != nil {
			writeSpan.End()
			m.panics.Inc()
			st.noteErr(err.Error())
			writeJSON(w, http.StatusInternalServerError, errResponse{err.Error()})
			return
		}
		m.ok.Inc()
		m.duration.ObserveWithExemplar(elapsed, traceIDString(rt))
		if framed {
			h := w.Header()
			h.Set("Content-Type", client.MapMediaType)
			h.Set("Content-Length", strconv.Itoa(out.Len()))
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, out.String())
		} else {
			mr.BLIF = out.String()
			writeJSON(w, http.StatusOK, mr)
		}
		writeSpan.End()
		st.noteTimings(0, 0, time.Since(writeStart))
	}
}

// answerMapErr answers a request whose map failed. A cancelled map has
// nobody to answer. An expired deadline is a 503 refusal. An
// *InternalError is a bug in the mapper, not a problem with the input,
// so it is answered the way withPanicIsolation answers a handler panic:
// a 500, an INCIDENT log line with the stack the error carries, and a
// panic decision. Anything else is the input's fault, a 400.
func (s *mapServer) answerMapErr(w http.ResponseWriter, r *http.Request, m *serverMetrics, st *requestState, eng chortle.Engine, err error) {
	var ie *chortle.InternalError
	switch {
	case errors.Is(err, context.Canceled):
		// The client disconnected mid-map; nobody is listening.
	case errors.Is(err, context.DeadlineExceeded):
		m.serverErr.Inc()
		st.noteErr("deadline exceeded")
		s.recordDecision(st, chortle.OverloadDecision{
			Code: http.StatusServiceUnavailable, Reason: chortle.ReasonDeadlineExpired,
			Engine: eng.String(), Detail: "deadline exceeded mid-solve",
		})
		writeRefusal(w, http.StatusServiceUnavailable, time.Second, "deadline exceeded")
	case errors.As(err, &ie):
		m.panics.Inc()
		st.noteErr(err.Error())
		s.cfg.logf("chortled: INCIDENT: internal error serving %s %s: %v\n%s",
			r.Method, r.URL.Path, ie.Value, ie.Stack)
		s.recordDecision(st, chortle.OverloadDecision{
			Code: http.StatusInternalServerError, Reason: chortle.ReasonPanic,
			Engine: eng.String(), Detail: fmt.Sprint(ie.Value),
		})
		writeJSON(w, http.StatusInternalServerError, errResponse{fmt.Sprintf("internal error: %v", ie.Value)})
	default:
		m.clientErr.Inc()
		st.noteErr(err.Error())
		writeJSON(w, http.StatusBadRequest, errResponse{err.Error()})
	}
}

// traceIDString renders the request's trace ID for the response body;
// empty (omitted from JSON) when the handler runs untraced.
func traceIDString(rt *chortle.ReqTrace) string {
	if rt.TraceID().IsZero() {
		return ""
	}
	return rt.TraceID().String()
}

// memCheck is one tick of the memory-pressure valve: above the
// watermark, shed half the shared cache and close the queue; below 80%
// of it, reopen. Returns whether the valve is engaged (for tests and
// logging).
func (s *mapServer) memCheck(m *serverMetrics) bool {
	if s.cfg.memWatermark <= 0 {
		return false
	}
	heap := int64(chortle.LiveHeapBytes())
	switch {
	case heap > s.cfg.memWatermark:
		shed := s.cfg.cache.Shed(0.5)
		first := s.overloaded.CompareAndSwap(false, true)
		m.memShed.Inc()
		s.cfg.logf("chortled: memory pressure: heap %d MiB over watermark %d MiB; shed %d cached shapes, queue closed",
			heap>>20, s.cfg.memWatermark>>20, shed)
		if first {
			// First engagement of this episode: worth a black-box marker
			// and a bundle while the evidence is still in memory.
			s.cfg.recorder.RecordNote(fmt.Sprintf(
				"memory valve engaged: heap %d MiB over watermark %d MiB, shed %d shapes",
				heap>>20, s.cfg.memWatermark>>20, shed))
			s.cfg.dumper.trigger(chortle.ReasonMemValve)
		}
	case heap < s.cfg.memWatermark*4/5:
		if s.overloaded.CompareAndSwap(true, false) {
			s.cfg.logf("chortled: memory pressure cleared: heap %d MiB; queue reopened", heap>>20)
			s.cfg.recorder.RecordNote(fmt.Sprintf("memory valve cleared: heap %d MiB", heap>>20))
		}
	}
	return s.overloaded.Load()
}

// runMemValve runs memCheck on a ticker until ctx ends.
func (s *mapServer) runMemValve(ctx context.Context, m *serverMetrics, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.memCheck(m)
		}
	}
}

func (s *mapServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeRefusal(w, http.StatusServiceUnavailable, 5*time.Second, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *mapServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	engines := make(map[string]engineStatsJSON, engineCount)
	for i := range s.engines {
		b := &s.engines[i]
		total := b.total.Load()
		if total == 0 {
			continue
		}
		outcomes := make(map[string]int64)
		for j, class := range outcomeClasses {
			if n := b.outcomes[j].Load(); n > 0 {
				outcomes[class] = n
			}
		}
		engines[engineNames[i]] = engineStatsJSON{
			Requests:   total,
			Outcomes:   outcomes,
			SolveP50MS: float64(s.solveTimes[i].p50().Microseconds()) / 1000,
			SolveP95MS: float64(s.solveTimes[i].p95().Microseconds()) / 1000,
		}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Server: serverInfoJSON{
			Version:       chortle.BuildVersion(),
			GoVersion:     chortle.BuildGoVersion(),
			Engines:       chortle.BuildEngines(),
			Started:       s.cfg.start,
			UptimeSeconds: time.Since(s.cfg.start).Seconds(),
			SLOStatus:     s.cfg.slo.Status().String(),
		},
		Cache:   s.cfg.cache.Stats(),
		Engines: engines,
	})
}

// serverInfoJSON identifies the running build in /stats: the same
// identity the build-info gauge and every -version flag report, plus
// process uptime so "how long has this been up" is one curl away.
type serverInfoJSON struct {
	Version       string    `json:"version"`
	GoVersion     string    `json:"goversion"`
	Engines       string    `json:"engines"`
	Started       time.Time `json:"started"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	SLOStatus     string    `json:"slo_status"`
}

// statsResponse is the /stats body: the running build's identity, the
// shared cache's counters, and a per-engine request breakdown (requests
// by outcome class and the engine's own solve-latency quantiles — the
// same windows that drive per-engine CoDel shedding).
type statsResponse struct {
	Server  serverInfoJSON             `json:"server"`
	Cache   chortle.CacheStats         `json:"cache"`
	Engines map[string]engineStatsJSON `json:"engines,omitempty"`
}

func (s *mapServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// OpenMetrics is opt-in by Accept header: it is the only exposition
	// format with exemplars, so scrapes that ask for it get trace IDs
	// attached to the latency histogram buckets. Everyone else keeps the
	// Prometheus 0.0.4 text format byte-for-byte.
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", chortle.OpenMetricsContentType)
		_ = s.cfg.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.reg.WritePrometheus(w)
}

// handler builds the server's mux. The trace middleware wraps the panic
// isolator so a panicking solve still finishes its trace and emits an
// access-log line with outcome "500".
func (s *mapServer) handler(m *serverMetrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/map", s.withRequestTrace(m, s.withPanicIsolation(m, s.handleMap(m))))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/debug/slo", s.handleDebugSLO)
	mux.HandleFunc("/debug/flight", s.handleDebugFlight)
	return mux
}

// drain flips the server into draining mode: /map and /healthz answer
// 503 while in-flight requests run to completion under http.Server's
// Shutdown.
func (s *mapServer) drain() { s.draining.Store(true) }
