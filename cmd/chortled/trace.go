package main

import (
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"chortle"
)

// Request-scoped tracing for the serving path. Every request gets a
// trace: the ID arrives in a W3C traceparent header (the client
// package sends one) or is generated at admission, is echoed back in
// the X-Trace-Id response header, and brackets the request's life as
// spans — admission, queue wait, engine solve, response write — joined
// to the mapper's own event stream. The result surfaces three ways:
// the -access-log JSONL stream (one AccessRecord per finished
// request), the /debug/requests endpoint (live in-flight table plus a
// bounded ring of recent requests, JSON or self-contained HTML), and
// trace-ID exemplars on the request latency histogram so a p99 spike
// in /metrics links to a concrete request.

// reqStages name what an in-flight request is doing right now, for the
// /debug/requests live table.
const (
	stageAdmission = "admission"
	stageQueued    = "queued"
	stageSolving   = "solving"
	stageWriting   = "writing"
)

// requestState is one request's mutable trace context, shared between
// the handler goroutine and /debug/requests readers.
type requestState struct {
	rt    *chortle.ReqTrace
	start time.Time

	mu          sync.Mutex
	method      string
	path        string
	stage       string
	engine      string
	k           int
	queueNS     int64
	solveNS     int64
	writeNS     int64
	luts        int
	cacheHits   int
	cacheMisses int
	errMsg      string
	circuit     string         // mapped model name — request-controlled, escape on render
	decision    string         // canonical overload reason (queue-full, codel, ...)
	solveSpan   chortle.SpanID // parent for the engine's phase spans
}

// The setters below are nil-safe: handleMap driven without the
// middleware (direct handler tests) simply records nothing.

func (st *requestState) setStage(stage string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.stage = stage
	st.mu.Unlock()
}

// trace returns the request's ReqTrace; nil (itself inert) without the
// middleware.
func (st *requestState) trace() *chortle.ReqTrace {
	if st == nil {
		return nil
	}
	return st.rt
}

func (st *requestState) setRequest(engine string, k int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.engine, st.k = engine, k
	st.mu.Unlock()
}

func (st *requestState) noteTimings(queue, solve, write time.Duration) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if queue > 0 {
		st.queueNS = queue.Nanoseconds()
	}
	if solve > 0 {
		st.solveNS = solve.Nanoseconds()
	}
	if write > 0 {
		st.writeNS = write.Nanoseconds()
	}
	st.mu.Unlock()
}

func (st *requestState) noteResult(luts, hits, misses int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.luts, st.cacheHits, st.cacheMisses = luts, hits, misses
	st.mu.Unlock()
}

func (st *requestState) noteErr(msg string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.errMsg = msg
	st.mu.Unlock()
}

// noteCircuit records the parsed network's model name. The value is
// request-controlled; every renderer must escape it.
func (st *requestState) noteCircuit(name string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.circuit = name
	st.mu.Unlock()
}

// noteDecision tags the request with the canonical overload-control
// reason behind its refusal or failure.
func (st *requestState) noteDecision(reason string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.decision = reason
	st.mu.Unlock()
}

// traceID returns the request's trace ID; zero without the middleware.
func (st *requestState) traceID() chortle.TraceID {
	if st == nil {
		return chortle.TraceID{}
	}
	return st.rt.TraceID()
}

func (st *requestState) setSolveSpan(id chortle.SpanID) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.solveSpan = id
	st.mu.Unlock()
}

// reqStateKey carries the requestState through the request context so
// handleMap can fill in what the middleware reports.
type reqStateKey struct{}

func withReqState(ctx context.Context, st *requestState) context.Context {
	return context.WithValue(ctx, reqStateKey{}, st)
}

// stateFrom returns the request's trace state, or nil when the handler
// runs outside the middleware (direct tests).
func stateFrom(ctx context.Context) *requestState {
	st, _ := ctx.Value(reqStateKey{}).(*requestState)
	return st
}

// inflightEntry is one row of the /debug/requests live table.
type inflightEntry struct {
	Trace     chortle.TraceID `json:"trace_id"`
	Method    string          `json:"method"`
	Path      string          `json:"path"`
	Stage     string          `json:"stage"`
	Engine    string          `json:"engine,omitempty"`
	K         int             `json:"k,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// requestTable tracks the in-flight set and a bounded ring of finished
// requests, newest kept. It is the data behind /debug/requests.
type requestTable struct {
	mu       sync.Mutex
	inflight map[*requestState]struct{}
	ring     []chortle.AccessRecord
	cap      int
	head     int
	finished int64
}

func newRequestTable(capacity int) *requestTable {
	if capacity < 1 {
		capacity = 64
	}
	return &requestTable{
		inflight: make(map[*requestState]struct{}),
		cap:      capacity,
	}
}

func (t *requestTable) add(st *requestState) {
	t.mu.Lock()
	t.inflight[st] = struct{}{}
	t.mu.Unlock()
}

// finish moves a request from the in-flight set into the recent ring,
// evicting the oldest record when full.
func (t *requestTable) finish(st *requestState, rec chortle.AccessRecord) {
	t.mu.Lock()
	delete(t.inflight, st)
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % t.cap
	}
	t.finished++
	t.mu.Unlock()
}

// snapshot returns the live table (longest-running first) and the
// recent ring (newest first).
func (t *requestTable) snapshot() ([]inflightEntry, []chortle.AccessRecord, int64) {
	t.mu.Lock()
	live := make([]inflightEntry, 0, len(t.inflight))
	now := time.Now()
	for st := range t.inflight {
		st.mu.Lock()
		live = append(live, inflightEntry{
			Trace: st.rt.TraceID(), Method: st.method, Path: st.path,
			Stage: st.stage, Engine: st.engine, K: st.k,
			ElapsedMS: float64(now.Sub(st.start).Microseconds()) / 1000,
		})
		st.mu.Unlock()
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ElapsedMS > live[j].ElapsedMS })
	recent := make([]chortle.AccessRecord, 0, len(t.ring))
	for i := len(t.ring) - 1; i >= 0; i-- {
		recent = append(recent, t.ring[(t.head+i)%len(t.ring)])
	}
	finished := t.finished
	t.mu.Unlock()
	return live, recent, finished
}

// activeTraces lists the trace IDs currently in flight — the continuous
// profiler stamps them into each capture's meta sidecar so a profile
// links back to the requests it overlapped.
func (t *requestTable) activeTraces() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.inflight))
	for st := range t.inflight {
		out = append(out, st.rt.TraceID().String())
	}
	sort.Strings(out)
	return out
}

// accessLogger streams AccessRecords as JSONL. Errors are sticky and
// never surface into the serving path (a full disk cannot fail a map).
type accessLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{enc: json.NewEncoder(w)}
}

// record writes one line; nil receivers (no -access-log) discard.
func (l *accessLogger) record(rec chortle.AccessRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.err = l.enc.Encode(rec)
}

// requestEventRing bounds the engine events one request's trace keeps.
const requestEventRing = 512

// phaseEnds passes only the engine's phase-end events to o, the
// request's bounded collector: those are the events Finish turns into
// engine:<phase> spans.
type phaseEnds struct{ o chortle.Observer }

func (p phaseEnds) Observe(e chortle.Event) {
	if e.Kind == chortle.EventPhaseEnd {
		p.o.Observe(e)
	}
}

// withRequestTrace opens the request's trace before anything else and
// closes it after everything else — including the panic isolator it
// wraps, so a panic-500 still produces a complete access-log line. The
// trace ID is committed to the X-Trace-Id response header immediately,
// before any status can be written.
func (s *mapServer) withRequestTrace(m *serverMetrics, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		traceID, parent, _ := chortle.ParseTraceparent(r.Header.Get(chortle.TraceparentHeader))
		rt := chortle.NewReqTrace("chortled", "request", traceID, parent, 64, requestEventRing)
		st := &requestState{
			rt: rt, start: time.Now(),
			method: r.Method, path: r.URL.Path, stage: stageAdmission,
		}
		w.Header().Set("X-Trace-Id", rt.TraceID().String())
		if status := s.cfg.slo.Status(); status != chortle.SLOOK {
			// Degraded SLO state rides on every response so clients can
			// react (shed optional load, surface the burn) without a
			// second request to /debug/slo.
			w.Header().Set("X-Slo-Status", status.String())
		}
		s.requests.add(st)
		sr := &statusRecorder{ResponseWriter: w}

		defer func() {
			total := time.Since(st.start)
			st.mu.Lock()
			rec := chortle.AccessRecord{
				Time:     st.start,
				Trace:    rt.TraceID(),
				Method:   st.method,
				Path:     st.path,
				Code:     sr.code,
				Outcome:  chortle.OutcomeClass(sr.code),
				Decision: st.decision,
				Circuit:  st.circuit,
				Engine:   st.engine, K: st.k,
				QueueNS: st.queueNS, SolveNS: st.solveNS, WriteNS: st.writeNS,
				TotalNS: total.Nanoseconds(),
				LUTs:    st.luts, CacheHits: st.cacheHits, CacheMisses: st.cacheMisses,
				Err:   st.errMsg,
				Spans: rt.Finish(st.solveSpan),
			}
			st.mu.Unlock()
			s.requests.finish(st, rec)
			s.cfg.accessLog.record(rec)
			s.cfg.recorder.RecordAccess(rec)
			s.cfg.slo.ObserveRequest(sr.code)
			s.countOutcome(st.engine, rec.Outcome)
			m.total.ObserveWithExemplar(total, rec.Trace.String())
			if sr.code == http.StatusInternalServerError {
				// The access record is already in the ring, so the bundle
				// this triggers contains the failing request itself.
				s.cfg.dumper.trigger("panic")
			}
		}()

		next(sr, r.WithContext(withReqState(r.Context(), st)))
	}
}

// countOutcome folds one finished request into the per-engine
// breakdown (unknown/unset engines land in the default tree bucket
// only when the request got far enough to resolve one).
func (s *mapServer) countOutcome(engine, outcome string) {
	idx, ok := engineIndex(engine)
	if !ok {
		return
	}
	b := &s.engines[idx]
	b.total.Add(1)
	if i, ok := outcomeIndex(outcome); ok {
		b.outcomes[i].Add(1)
	}
}

// handleDebugRequests serves the live in-flight table and the recent
// ring: JSON by default, a self-contained HTML view with ?format=html.
func (s *mapServer) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	live, recent, finished := s.requests.snapshot()
	if r.URL.Query().Get("format") == "html" {
		s.writeRequestsHTML(w, live, recent, finished)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"inflight": live,
		"recent":   recent,
		"finished": finished,
		"profiles": s.cfg.profiler.recent(),
	})
}

// requestsPage is the self-contained /debug/requests?format=html view:
// inline CSS only, no external references, in the PR-5 report style.
var requestsPage = template.Must(template.New("requests").Funcs(template.FuncMap{
	"ms": func(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) },
	"spanbar": func(rec chortle.AccessRecord, sp chortle.Span) template.CSS {
		if rec.TotalNS <= 0 {
			return "margin-left:0;width:0"
		}
		off := sp.Start.Sub(rec.Time).Nanoseconds()
		dur := sp.End.Sub(sp.Start).Nanoseconds()
		left := float64(off) / float64(rec.TotalNS) * 100
		width := float64(dur) / float64(rec.TotalNS) * 100
		if left < 0 {
			left = 0
		}
		if width < 0.5 {
			width = 0.5
		}
		if left > 100 {
			left = 100
		}
		if left+width > 100 {
			width = 100 - left
		}
		return template.CSS(fmt.Sprintf("margin-left:%.2f%%;width:%.2f%%", left, width))
	},
}).Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>chortled requests</title>
<style>
body{font-family:system-ui,sans-serif;margin:2em;color:#222}
h1{font-size:1.3em} h2{font-size:1.1em;margin-top:1.5em}
table{border-collapse:collapse;width:100%;font-size:0.85em}
th,td{border:1px solid #ddd;padding:4px 8px;text-align:left}
th{background:#f5f5f5}
.mono{font-family:ui-monospace,monospace}
.bar{height:10px;background:#4a90d9;border-radius:2px}
.lane{background:#f0f0f0;border-radius:2px;margin:1px 0}
.out-2xx{color:#2a7} .out-429{color:#b80} .out-500{color:#c22}
.out-503{color:#b80} .out-504{color:#b80} .out-4xx{color:#c22}
.out-abandoned{color:#888}
small{color:#888}
</style></head><body>
<h1>chortled requests</h1>
<p><small>{{len .Live}} in flight · {{len .Recent}} recent (of {{.Finished}} finished)</small></p>
<h2>In flight</h2>
<table><tr><th>trace</th><th>stage</th><th>engine</th><th>K</th><th>elapsed ms</th></tr>
{{range .Live}}<tr><td class="mono">{{.Trace}}</td><td>{{.Stage}}</td><td>{{.Engine}}</td><td>{{.K}}</td><td>{{printf "%.2f" .ElapsedMS}}</td></tr>
{{else}}<tr><td colspan="5"><small>none</small></td></tr>{{end}}
</table>
<h2>Recent</h2>
{{range .Recent}}
<table><tr>
<td class="mono">{{.Trace}}</td>
<td class="out-{{.Outcome}}">{{.Outcome}} ({{.Code}}){{if .Decision}} <small>{{.Decision}}</small>{{end}}</td>
<td>{{if .Circuit}}{{.Circuit}} · {{end}}{{.Engine}}{{if .K}} K={{.K}}{{end}}</td>
<td>{{ms .TotalNS}} ms total · queue {{ms .QueueNS}} · solve {{ms .SolveNS}}</td>
<td>{{if .LUTs}}{{.LUTs}} LUTs{{end}}{{if .Err}} <small>{{.Err}}</small>{{end}}</td>
</tr></table>
<div style="margin:2px 0 12px 0">
{{$rec := .}}{{range .Spans}}<div class="lane"><div class="bar" style="{{spanbar $rec .}}" title="{{.Name}}"></div> <small class="mono">{{.Name}} {{ms .Duration.Nanoseconds}} ms</small></div>{{end}}
</div>
{{else}}<p><small>none yet</small></p>{{end}}
{{if .Profiles}}<h2>Continuous profiles</h2>
<table><tr><th>capture</th><th>time</th><th>overlapping traces</th></tr>
{{range .Profiles}}<tr><td class="mono">{{.Stamp}}</td><td>{{.Time.Format "15:04:05"}}</td><td class="mono">{{range .Traces}}{{.}} {{end}}</td></tr>{{end}}
</table>{{end}}
</body></html>`))

type requestsPageData struct {
	Live     []inflightEntry
	Recent   []chortle.AccessRecord
	Finished int64
	Profiles []profileSet
}

func (s *mapServer) writeRequestsHTML(w http.ResponseWriter, live []inflightEntry, recent []chortle.AccessRecord, finished int64) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = requestsPage.Execute(w, requestsPageData{
		Live: live, Recent: recent, Finished: finished,
		Profiles: s.cfg.profiler.recent(),
	})
}
