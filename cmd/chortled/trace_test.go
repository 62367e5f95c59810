package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"chortle"
	"chortle/client"
	"chortle/internal/bench"
)

// TestAccessLogParsesBack drives the full outcome mix — a 2xx solve, a
// 400, a capacity 429, and a chaos-injected panic 500 — through a
// server with -access-log attached, then parses the log back with
// ReadTraceJSONL. Every request must leave exactly one line with its
// outcome class and a non-zero trace ID; the 2xx line must carry the
// span timeline including the engine's own phases.
func TestAccessLogParsesBack(t *testing.T) {
	var logBuf bytes.Buffer
	reg := chortle.NewMetricsRegistry()
	cache := chortle.NewSharedCache(chortle.SharedCacheConfig{})
	chaos := quietChaos(1, cache, reg)
	s, ts := newTestServer(t, serverConfig{
		reg: reg, cache: cache, chaos: chaos,
		maxInflight: 1, maxQueue: 0,
		accessLog: newAccessLogger(&logBuf),
	})
	blif := benchBLIF(t, bench.Suite()[0])

	// 2xx
	resp, mr := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map: HTTP %d", resp.StatusCode)
	}
	if mr.TraceID == "" {
		t.Fatal("success response carries no trace_id")
	}
	if h := resp.Header.Get("X-Trace-Id"); h != mr.TraceID {
		t.Fatalf("X-Trace-Id %q != body trace_id %q", h, mr.TraceID)
	}

	// 400: unknown engine, refused at admission.
	resp400, _ := postMap(t, ts.URL+"/map?k=4&engine=nope", blif, "text/plain")
	if resp400.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad engine: HTTP %d, want 400", resp400.StatusCode)
	}

	// 429: the only slot is held and the queue is zero.
	release, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("could not hold the only slot")
	}
	resp429, _ := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("held slot: HTTP %d, want 429", resp429.StatusCode)
	}
	release()

	// 500: every subsequent solve panics; the isolator answers.
	chaos.setProbs(0, 1, 0, 0)
	resp500, _ := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
	if resp500.StatusCode != http.StatusInternalServerError {
		t.Fatalf("chaos panic: HTTP %d, want 500", resp500.StatusCode)
	}

	_, spans, err := chortle.ReadTraceJSONL(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("access log does not parse back: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans flattened out of the access log")
	}
	// Re-decode line by line for the per-outcome assertions.
	var recs []chortle.AccessRecord
	dec := json.NewDecoder(bytes.NewReader(logBuf.Bytes()))
	for dec.More() {
		var rec chortle.AccessRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d access-log lines, want 4", len(recs))
	}
	want := map[string]int{"2xx": 1, "4xx": 1, "429": 1, "500": 1}
	for _, rec := range recs {
		if rec.Trace.IsZero() {
			t.Errorf("outcome %s: zero trace ID", rec.Outcome)
		}
		if rec.TotalNS <= 0 {
			t.Errorf("outcome %s: non-positive total_ns", rec.Outcome)
		}
		want[rec.Outcome]--
		if rec.Outcome == "2xx" {
			if rec.Engine != "tree" || rec.LUTs == 0 || rec.SolveNS <= 0 {
				t.Errorf("2xx record incomplete: %+v", rec)
			}
			names := map[string]bool{}
			for _, sp := range rec.Spans {
				names[sp.Name] = true
			}
			for _, n := range []string{"request", "admission", "queue", "solve", "write"} {
				if !names[n] {
					t.Errorf("2xx record missing %q span", n)
				}
			}
			enginePhases := false
			for n := range names {
				if strings.HasPrefix(n, "engine:") {
					enginePhases = true
				}
			}
			if !enginePhases {
				t.Error("2xx record has no engine:<phase> spans")
			}
		}
	}
	for outcome, n := range want {
		if n != 0 {
			t.Errorf("outcome %s: wrong line count (off by %d)", outcome, n)
		}
	}
}

// TestDebugRequestsInflightAndRing pins /debug/requests: a queued
// request is visible in the live table with its stage while it waits,
// and the recent ring is bounded, evicting oldest-first.
func TestDebugRequestsInflightAndRing(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxInflight: 1, maxQueue: 1, requestRing: 2})
	blif := benchBLIF(t, bench.Suite()[0])

	release, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("could not hold the only slot")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := http.Post(ts.URL+"/map?k=4", "text/plain", strings.NewReader(blif))
		resp.Body.Close()
	}()
	// The request must surface in the live table, stage "queued".
	waitFor(t, func() bool {
		live, _, _ := s.requests.snapshot()
		for _, e := range live {
			if e.Path == "/map" && e.Stage == stageQueued {
				return true
			}
		}
		return false
	})
	var dbg struct {
		Inflight []inflightEntry `json:"inflight"`
	}
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, e := range dbg.Inflight {
		if e.Path == "/map" && e.Stage == stageQueued && !e.Trace.IsZero() {
			found = true
		}
	}
	if !found {
		t.Fatalf("queued request not in /debug/requests inflight: %+v", dbg.Inflight)
	}
	release()
	<-done

	// Overflow the size-2 ring: after three more requests only the two
	// newest remain, newest first, and the finished counter keeps the
	// full total.
	for i := 0; i < 3; i++ {
		resp, _ := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	waitFor(t, func() bool {
		_, _, finished := s.requests.snapshot()
		return finished == 4
	})
	_, recent, finished := s.requests.snapshot()
	if len(recent) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recent))
	}
	if finished != 4 {
		t.Fatalf("finished counter %d, want 4", finished)
	}
	if !recent[0].Time.After(recent[1].Time) && !recent[0].Time.Equal(recent[1].Time) {
		t.Error("recent ring is not newest-first")
	}

	// The HTML view renders self-contained.
	hresp, err := http.Get(ts.URL + "/debug/requests?format=html")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var html bytes.Buffer
	if _, err := html.ReadFrom(hresp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := hresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("HTML view Content-Type %q", ct)
	}
	page := html.String()
	if !strings.Contains(page, "chortled requests") {
		t.Error("HTML view missing title")
	}
	for _, banned := range []string{"src=", "href=\"http", "@import", "url("} {
		if strings.Contains(page, banned) {
			t.Errorf("HTML view is not self-contained: found %q", banned)
		}
	}
}

// TestE2ETraceAcrossProcesses is the acceptance end-to-end: the client
// maps through a server whose only slot is held, eats a 429, retries
// after the slot frees, and succeeds — and afterward the client span
// stream and the server access log tell one story under a single trace
// ID, renderable into a valid multi-process Chrome trace.
func TestE2ETraceAcrossProcesses(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxInflight: 1, maxQueue: 0})
	blif := benchBLIF(t, bench.Suite()[0])

	release, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("could not hold the only slot")
	}

	var spans chortle.SpanCollector
	c, err := client.New(client.Config{
		Addrs:       []string{ts.URL},
		Spans:       &spans,
		MaxRetries:  8,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		res *client.MapResponse
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := c.Map(context.Background(), client.MapRequest{BLIF: blif, K: 4})
		done <- result{res, err}
	}()

	// Hold the slot until the server has refused at least once, so the
	// client is forced into exactly the retry path under test.
	waitFor(t, func() bool {
		_, recent, _ := s.requests.snapshot()
		for _, rec := range recent {
			if rec.Outcome == "429" {
				return true
			}
		}
		return false
	})
	release()
	r := <-done
	if r.err != nil {
		t.Fatalf("map through retry: %v", r.err)
	}
	if r.res.TraceID == "" {
		t.Fatal("response carries no trace ID")
	}

	// One trace ID across every client span.
	clientSpans := spans.Spans()
	if len(clientSpans) == 0 {
		t.Fatal("client recorded no spans")
	}
	attempts, backoffs := 0, 0
	attemptIDs := map[chortle.SpanID]bool{}
	for _, sp := range clientSpans {
		if sp.Trace.String() != r.res.TraceID {
			t.Fatalf("client span %q trace %s != response trace %s", sp.Name, sp.Trace, r.res.TraceID)
		}
		if sp.Process != "client" {
			t.Fatalf("client span %q from process %q", sp.Name, sp.Process)
		}
		switch sp.Name {
		case "attempt":
			attempts++
			attemptIDs[sp.ID] = true
		case "backoff":
			backoffs++
		}
	}
	if attempts < 2 || backoffs < 1 {
		t.Fatalf("forced retry left %d attempts and %d backoffs, want ≥2 and ≥1", attempts, backoffs)
	}

	// The same trace ID on both server-side records (the 429 and the
	// 2xx), each parented under one of the client's attempt spans.
	_, recent, _ := s.requests.snapshot()
	var serverSpans []chortle.Span
	serverOutcomes := map[string]int{}
	for _, rec := range recent {
		if rec.Trace.String() != r.res.TraceID {
			continue
		}
		serverOutcomes[rec.Outcome]++
		serverSpans = append(serverSpans, rec.Spans...)
		for _, sp := range rec.Spans {
			if sp.Name == "request" && !attemptIDs[sp.Parent] {
				t.Errorf("server root of the %s record is not parented under a client attempt", rec.Outcome)
			}
		}
	}
	if serverOutcomes["429"] < 1 || serverOutcomes["2xx"] != 1 {
		t.Fatalf("server records under the trace: %v, want ≥1 429 and exactly one 2xx", serverOutcomes)
	}

	// The merged streams render into valid Chrome trace JSON spanning
	// both processes.
	var chromeTrace bytes.Buffer
	if err := chortle.WriteChromeTraceMulti(&chromeTrace, append(append([]chortle.Span{}, clientSpans...), serverSpans...), nil); err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(chromeTrace.Bytes(), &recs); err != nil {
		t.Fatalf("merged trace is not valid Chrome trace JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, rec := range recs {
		if rec.Ph == "X" {
			pids[rec.Pid] = true
		}
	}
	if len(pids) < 2 {
		t.Fatalf("merged timeline spans %d processes, want ≥2 (client and chortled)", len(pids))
	}
}

// TestTracingOutputByteIdentical pins the passivity contract at the
// serving layer: with the trace middleware active and an inbound
// traceparent, the mapped BLIF is byte-identical to a local map of the
// same network.
func TestTracingOutputByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{maxInflight: 2, maxQueue: 4})
	blif := benchBLIF(t, bench.Suite()[0])

	nw, err := chortle.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	local, err := chortle.Map(nw, chortle.DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := local.Circuit.WriteBLIF(&want); err != nil {
		t.Fatal(err)
	}

	trace := chortle.NewTraceID()
	parent := chortle.NewSpanID()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/map?k=4", strings.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(chortle.TraceparentHeader, chortle.FormatTraceparent(trace, parent))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var mr mapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.TraceID != trace.String() {
		t.Fatalf("server did not adopt the inbound trace: got %s, want %s", mr.TraceID, trace)
	}
	if mr.BLIF != want.String() {
		t.Fatal("served BLIF with tracing on differs from the local map")
	}
}

// TestMetricsOpenMetricsNegotiation pins the /metrics split: plain
// scrapes keep the Prometheus 0.0.4 text format, and an OpenMetrics
// Accept header switches to the exemplar-capable exposition, which a
// served request has stamped with its trace ID.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{maxInflight: 2, maxQueue: 4})
	blif := benchBLIF(t, bench.Suite()[0])
	resp, mr := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map: HTTP %d", resp.StatusCode)
	}

	plain, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Body.Close()
	if ct := plain.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("default /metrics Content-Type %q", ct)
	}
	var plainBody bytes.Buffer
	plainBody.ReadFrom(plain.Body)
	if strings.Contains(plainBody.String(), "# {trace_id=") {
		t.Fatal("exemplars leaked into the Prometheus 0.0.4 exposition")
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	om, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer om.Body.Close()
	if ct := om.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("negotiated /metrics Content-Type %q", ct)
	}
	var omBody bytes.Buffer
	omBody.ReadFrom(om.Body)
	text := omBody.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("OpenMetrics exposition missing # EOF terminator")
	}
	if !strings.Contains(text, `# {trace_id="`+mr.TraceID+`"}`) {
		t.Fatal("request's trace ID not present as an exemplar")
	}
}

// TestStatsPerEngineBreakdown covers the engine-keyed /stats surface
// across engines and outcome classes.
func TestStatsPerEngineBreakdown(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxInflight: 1, maxQueue: 0})
	blif := benchBLIF(t, bench.Suite()[0])

	for _, eng := range []string{"tree", "cut"} {
		resp, _ := postMap(t, ts.URL+"/map?k=4&engine="+eng, blif, "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", eng, resp.StatusCode)
		}
	}
	// A cut-engine 429: capacity refusals count under the engine the
	// request asked for.
	release, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("could not hold the only slot")
	}
	resp, _ := postMap(t, ts.URL+"/map?k=4&engine=cut", blif, "text/plain")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("held slot: HTTP %d, want 429", resp.StatusCode)
	}
	release()

	var st statsResponse
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	tree, cut := st.Engines["tree"], st.Engines["cut"]
	if tree.Requests != 1 || tree.Outcomes["2xx"] != 1 {
		t.Errorf("tree breakdown: %+v", tree)
	}
	if cut.Requests != 2 || cut.Outcomes["2xx"] != 1 || cut.Outcomes["429"] != 1 {
		t.Errorf("cut breakdown: %+v", cut)
	}
	if _, ok := st.Engines["mis"]; ok {
		t.Error("unused engine reported in /stats")
	}
}

// TestAccessLogKeepsEveryEnginePhase maps a circuit with more LUTs than
// a request's event ring holds. Per-tree and per-LUT events outnumber
// the ring, yet the access record must carry one engine:<phase> span
// for every phase the engine ran, in order.
func TestAccessLogKeepsEveryEnginePhase(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, serverConfig{
		maxInflight: 1, maxQueue: 0,
		accessLog: newAccessLogger(&logBuf),
	})
	nw := bench.Synthetic(bench.SyntheticSpec{Name: "wide", Inputs: 48, Outputs: 48, Gates: 1500, Seed: 7})
	var sb strings.Builder
	if err := chortle.WriteBLIF(&sb, nw); err != nil {
		t.Fatal(err)
	}
	resp, mr := postMap(t, ts.URL+"/map?k=2", sb.String(), "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map: HTTP %d", resp.StatusCode)
	}
	if mr.LUTs <= requestEventRing {
		t.Fatalf("%d LUTs: the circuit must emit more LUT events than the ring's %d", mr.LUTs, requestEventRing)
	}

	// The phases an unbounded observer sees on the same map.
	var want []string
	opts := chortle.DefaultOptions(2)
	opts.Observer = chortle.ObserverFunc(func(e chortle.Event) {
		if e.Kind == chortle.EventPhaseEnd {
			want = append(want, "engine:"+e.Phase)
		}
	})
	local, err := chortle.ReadBLIF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chortle.MapCtx(context.Background(), local, opts); err != nil {
		t.Fatal(err)
	}

	var rec chortle.AccessRecord
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("access record: %v", err)
	}
	var got []string
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, "engine:") {
			got = append(got, sp.Name)
		}
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("access record engine spans %q, want %q", got, want)
	}
}
