package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chortle"
)

func newRegistry() *chortle.MetricsRegistry { return chortle.NewMetricsRegistry() }

// fastClient returns a Client aimed at the given servers with the time
// seams neutered: sleeps return immediately (recording the requested
// durations), jitter is deterministic (the full window), and now is a
// controllable clock.
func fastClient(t *testing.T, cfg Config) (*Client, *[]time.Duration, *time.Time) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	now := time.Unix(1000, 0)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	c.jitter = func(max time.Duration) time.Duration { return max }
	c.now = func() time.Time { return now }
	return c, &slept, &now
}

// readMapRequest reads a request the way chortled does: the options
// from the query string and the BLIF as the raw body.
func readMapRequest(t *testing.T, r *http.Request) MapRequest {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Errorf("server read: %v", err)
	}
	q := r.URL.Query()
	num := func(name string) int64 {
		if q.Get(name) == "" {
			return 0
		}
		n, err := strconv.ParseInt(q.Get(name), 10, 64)
		if err != nil {
			t.Errorf("server decode %s: %v", name, err)
		}
		return n
	}
	return MapRequest{
		BLIF: string(body), K: int(num("k")), Engine: q.Get("engine"),
		BudgetWorkUnits: num("budget_work_units"), DeadlineMS: num("deadline_ms"),
	}
}

func okHandler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := readMapRequest(t, r)
		_ = json.NewEncoder(w).Encode(MapResponse{Circuit: "c", K: req.K, LUTs: 3, BLIF: "mapped:" + req.BLIF})
	}
}

func TestMapSuccess(t *testing.T) {
	ts := httptest.NewServer(okHandler(t))
	defer ts.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}})
	res, err := c.Map(context.Background(), MapRequest{BLIF: "net", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.BLIF != "mapped:net" || res.K != 4 || res.Addr != ts.URL {
		t.Fatalf("unexpected response: %+v", res)
	}
	if st := c.Stats(); st.Requests != 1 || st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		okHandler(t)(w, r)
	}))
	defer ts.Close()
	c, slept, _ := fastClient(t, Config{Addrs: []string{ts.URL}, MaxBackoff: 10 * time.Second})
	res, err := c.Map(context.Background(), MapRequest{BLIF: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs != 3 {
		t.Fatalf("response: %+v", res)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// Retry-After (7 s) dominates the small jittered windows.
	for i, d := range *slept {
		if d != 7*time.Second {
			t.Fatalf("sleep %d = %v, want 7 s from Retry-After", i, d)
		}
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPermanent400NotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"bad blif"}`))
	}))
	defer ts.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}})
	_, err := c.Map(context.Background(), MapRequest{BLIF: "x"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want exactly 1", calls.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}, MaxRetries: 2, FailureThreshold: 100})
	_, err := c.Map(context.Background(), MapRequest{BLIF: "x"})
	if err == nil || !strings.Contains(err.Error(), "3 attempts failed") {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
}

func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		okHandler(t)(w, r)
	}))
	defer ts.Close()
	c, _, now := fastClient(t, Config{
		Addrs: []string{ts.URL}, MaxRetries: 1, FailureThreshold: 2, Cooldown: time.Second,
	})

	// Two failing calls (one retry each) push 4 consecutive failures
	// through a threshold of 2: breaker opens.
	for i := 0; i < 2; i++ {
		if _, err := c.Map(context.Background(), MapRequest{BLIF: "x"}); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := c.Stats(); st.BreakerOpens == 0 || st.BreakersOpenNow != 1 {
		t.Fatalf("breaker never opened: %+v", st)
	}
	// While open (cooldown not elapsed), no request reaches the server.
	before := calls.Load()
	if _, err := c.Map(context.Background(), MapRequest{BLIF: "x"}); !errors.Is(err, ErrNoHealthyAddr) {
		t.Fatalf("err = %v, want ErrNoHealthyAddr", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker let a request through")
	}
	// After cooldown the probe goes through, succeeds, and closes.
	failing.Store(false)
	*now = now.Add(2 * time.Second)
	if _, err := c.Map(context.Background(), MapRequest{BLIF: "x"}); err != nil {
		t.Fatalf("post-cooldown probe: %v", err)
	}
	st := c.Stats()
	if st.BreakerCloses == 0 || st.BreakersOpenNow != 0 {
		t.Fatalf("breaker never closed: %+v", st)
	}
}

func TestHedgeWinsAgainstSlowPrimary(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		okHandler(t)(w, r)
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(okHandler(t))
	defer fast.Close()

	c, _, _ := fastClient(t, Config{
		Addrs:      []string{slow.URL, fast.URL},
		HedgeDelay: 5 * time.Millisecond,
	})
	// Force the rotation to start at the slow server.
	c.next.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := c.Map(ctx, MapRequest{BLIF: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != fast.URL {
		t.Fatalf("answer came from %s, want the hedge target %s", res.Addr, fast.URL)
	}
	if st := c.Stats(); st.Hedges != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFailoverToReplica(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // connection refused
	live := httptest.NewServer(okHandler(t))
	defer live.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{dead.URL, live.URL}})
	c.next.Store(0)
	res, err := c.Map(context.Background(), MapRequest{BLIF: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != live.URL {
		t.Fatalf("served by %s, want %s", res.Addr, live.URL)
	}
}

func TestContextCancellationStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := New(Config{Addrs: []string{ts.URL}, MaxRetries: 1000, FailureThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	c.sleep = func(ctx context.Context, d time.Duration) error {
		calls++
		if calls >= 3 {
			cancel()
		}
		return ctx.Err()
	}
	_, err = c.Map(ctx, MapRequest{BLIF: "x"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > 4 {
		t.Fatalf("%d sleeps after cancellation", calls)
	}
}

func TestDeadlineDerivedFromContext(t *testing.T) {
	var got atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(readMapRequest(t, r).DeadlineMS)
		_ = json.NewEncoder(w).Encode(MapResponse{BLIF: "ok"})
	}))
	defer ts.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Map(ctx, MapRequest{BLIF: "n"}); err != nil {
		t.Fatal(err)
	}
	if ms := got.Load(); ms <= 0 || ms > 10_000 {
		t.Fatalf("derived deadline_ms = %d, want in (0, 10000]", ms)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty Addrs")
	}
	if _, err := New(Config{Addrs: []string{"not-a-url"}}); err == nil {
		t.Fatal("New accepted a bare host")
	}
}

func TestMetricsRegistered(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	reg := newRegistry()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}, MaxRetries: 5, FailureThreshold: 2, Metrics: reg})
	_, _ = c.Map(context.Background(), MapRequest{BLIF: "x"})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`chortle_client_requests_total{outcome="error"} 1`,
		`chortle_client_breaker_transitions_total{to="open"} 1`,
		"chortle_client_breaker_open 1",
		"chortle_client_retries_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestMapSendsRawBLIF pins the request's wire form: the BLIF is the
// body verbatim, every option rides in the query string, and the
// Accept header names the framed type ahead of JSON.
func TestMapSendsRawBLIF(t *testing.T) {
	const blif = ".model m\n.inputs a \"b\n.outputs y\n.names a y\n1 1\n.end\n"
	var got MapRequest
	var accept, ctype, query string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = readMapRequest(t, r)
		accept, ctype, query = r.Header.Get("Accept"), r.Header.Get("Content-Type"), r.URL.RawQuery
		_ = json.NewEncoder(w).Encode(MapResponse{BLIF: "ok"})
	}))
	defer ts.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}})
	want := MapRequest{BLIF: blif, K: 5, Engine: "cut", BudgetWorkUnits: 123, DeadlineMS: 4567}
	if _, err := c.Map(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("server read %+v, want %+v", got, want)
	}
	if query != "budget_work_units=123&deadline_ms=4567&engine=cut&k=5" {
		t.Errorf("query %q", query)
	}
	if accept != MapMediaType+", application/json" || ctype != "text/plain" {
		t.Errorf("Accept %q, Content-Type %q", accept, ctype)
	}
	if _, err := c.Map(context.Background(), MapRequest{BLIF: blif}); err != nil {
		t.Fatal(err)
	}
	if query != "" {
		t.Errorf("default options sent query %q, want none", query)
	}
}

// framedBody is a MapMediaType body as chortled writes it.
const framedBody = `{"circuit":"c","k":4,"engine":"tree","luts":1,"trees":1,"cache_hits":0,"cache_misses":1,"elapsed_ns":7,"trace_id":"0123456789abcdef0123456789abcdef"}` +
	"\n.model c\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"

// TestMapFramedResponse decodes a framed success by its Content-Type
// and still reads a JSON success from a server that answers only JSON.
func TestMapFramedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", MapMediaType)
		_, _ = io.WriteString(w, framedBody)
	}))
	defer ts.Close()
	c, _, _ := fastClient(t, Config{Addrs: []string{ts.URL}})
	res, err := c.Map(context.Background(), MapRequest{BLIF: "n", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := MapResponse{
		Circuit: "c", K: 4, Engine: "tree", LUTs: 1, Trees: 1, CacheMisses: 1, ElapsedNS: 7,
		BLIF:    framedBody[strings.IndexByte(framedBody, '\n')+1:],
		TraceID: "0123456789abcdef0123456789abcdef", Addr: ts.URL,
	}
	if !reflect.DeepEqual(*res, want) {
		t.Fatalf("decoded %+v, want %+v", *res, want)
	}

	jsonOnly := httptest.NewServer(okHandler(t))
	defer jsonOnly.Close()
	c, _, _ = fastClient(t, Config{Addrs: []string{jsonOnly.URL}})
	if res, err = c.Map(context.Background(), MapRequest{BLIF: "n", K: 4}); err != nil {
		t.Fatal(err)
	}
	if res.BLIF != "mapped:n" || res.K != 4 {
		t.Fatalf("JSON answer decoded as %+v", res)
	}
}

// TestOversizeResponseRefused shrinks the body limit through the test
// seam: a body one byte over it fails at once, whether its length is
// declared or chunked, and is not retried; a body at the limit maps.
func TestOversizeResponseRefused(t *testing.T) {
	const limit = 64
	atLimit := `{"blif":"` + strings.Repeat("x", limit-11) + `"}`
	for _, tc := range []struct {
		name, body string
		chunked    bool
		wantErr    bool
	}{
		{"declared, at limit", atLimit, false, false},
		{"chunked, at limit", atLimit, true, false},
		{"declared, over limit", atLimit + " ", false, true},
		{"chunked, over limit", atLimit + " ", true, true},
	} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			calls.Add(1)
			if tc.chunked {
				w.(http.Flusher).Flush()
			}
			_, _ = io.WriteString(w, tc.body)
		}))
		c, slept, _ := fastClient(t, Config{Addrs: []string{ts.URL}})
		c.maxBody = limit
		res, err := c.Map(context.Background(), MapRequest{BLIF: "n"})
		ts.Close()
		switch {
		case !tc.wantErr && (err != nil || len(res.BLIF) != limit-11):
			t.Errorf("%s: res %+v, err %v; want the %d-byte BLIF", tc.name, res, err, limit-11)
		case tc.wantErr && !errors.Is(err, errResponseTooLarge):
			t.Errorf("%s: err %v, want errResponseTooLarge", tc.name, err)
		case calls.Load() != 1 || len(*slept) != 0:
			t.Errorf("%s: %d calls, %d backoffs; want one call, no retry", tc.name, calls.Load(), len(*slept))
		}
	}
}

// TestReadBodyBoundsDeclaredLength reads a 100-byte body declared as
// the largest allowed: the read may allocate bodyHint up front, not the
// declared length.
func TestReadBodyBoundsDeclaredLength(t *testing.T) {
	body := strings.Repeat("x", 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readBody(strings.NewReader(body), maxResponseBody, maxResponseBody)
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != body {
		t.Fatalf("readBody: %q, %v", got, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a 100-byte body declared as %d bytes allocated %d bytes", maxResponseBody, grew)
	}
}

// FuzzDecodeMapResponse feeds the framed decoder arbitrary bodies. It
// must not panic, and whatever it accepts must carry exactly the bytes
// after the first newline as its BLIF.
func FuzzDecodeMapResponse(f *testing.F) {
	f.Add([]byte(framedBody))
	f.Add([]byte(`{"circuit":"c","luts":1}`))
	f.Add([]byte("{\"circuit\":\n.model c\n.end\n"))
	f.Add([]byte(`{"circuit":"c","blif":"x"}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := decodeMapResponse(body)
		if err != nil {
			return
		}
		nl := strings.IndexByte(string(body), '\n')
		if nl < 0 || res.BLIF != string(body[nl+1:]) {
			t.Fatalf("accepted %q with BLIF %q", body, res.BLIF)
		}
	})
}
