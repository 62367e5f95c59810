package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chortle"
	"chortle/client"
	"chortle/internal/bench"
)

func newTestServer(t *testing.T, cfg serverConfig) (*mapServer, *httptest.Server) {
	t.Helper()
	if cfg.reg == nil {
		cfg.reg = chortle.NewMetricsRegistry()
	}
	if cfg.cache == nil {
		cfg.cache = chortle.NewSharedCache(chortle.SharedCacheConfig{})
	}
	s, m := newMapServer(cfg)
	ts := httptest.NewServer(s.handler(m))
	t.Cleanup(ts.Close)
	return s, ts
}

// benchBLIF returns an optimized golden benchmark as BLIF text.
func benchBLIF(t *testing.T, c bench.Circuit) string {
	t.Helper()
	nw, err := bench.Optimized(c)
	if err != nil {
		t.Fatalf("preparing %s: %v", c.Name, err)
	}
	var sb strings.Builder
	if err := chortle.WriteBLIF(&sb, nw); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func postMap(t *testing.T, url, body, contentType string) (*http.Response, mapResponse) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr mapResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, mr
}

// TestServerMapTwiceSecondHits is the e2e smoke in test form: mapping
// the same circuit twice, the second response must report shared-cache
// hits and byte-identical output, and /stats and /metrics must agree.
func TestServerMapTwiceSecondHits(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{maxInflight: 2, maxQueue: 4})
	blif := benchBLIF(t, bench.Suite()[0])

	resp1, cold := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold map: HTTP %d", resp1.StatusCode)
	}
	if cold.CacheMisses == 0 || cold.LUTs == 0 {
		t.Fatalf("cold response: %+v", cold)
	}
	resp2, warm := postMap(t, ts.URL+"/map?k=4", blif, "text/plain")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm map: HTTP %d", resp2.StatusCode)
	}
	if warm.CacheHits == 0 || warm.CacheMisses != 0 {
		t.Fatalf("warm run did not hit: hits=%d misses=%d", warm.CacheHits, warm.CacheMisses)
	}
	if warm.BLIF != cold.BLIF {
		t.Fatal("warm BLIF differs from cold BLIF")
	}

	var st statsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 || st.Cache.Entries == 0 {
		t.Fatalf("/stats after warm run: %+v", st.Cache)
	}
	if tree := st.Engines["tree"]; tree.Requests != 2 || tree.Outcomes["2xx"] != 2 {
		t.Fatalf("/stats tree engine breakdown: %+v", st.Engines)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"chortle_shape_cache_hits",
		`chortled_requests_total{code="200"} 2`,
		"chortled_request_seconds",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerJSONRequest drives the JSON body form, with fields
// overriding query parameters.
func TestServerJSONRequest(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{maxInflight: 1, maxQueue: 1})
	body, err := json.Marshal(mapRequest{BLIF: benchBLIF(t, bench.Suite()[1]), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, mr := postMap(t, ts.URL+"/map?k=5", string(body), "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if mr.K != 3 {
		t.Fatalf("JSON k=3 should override query k=5, got %d", mr.K)
	}
}

// TestServerEngineSelection drives per-request engine selection: the
// engine rides in the query or JSON body, the response echoes it, and
// the served circuit is byte-identical to an in-process map with the
// same engine.
func TestServerEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{maxInflight: 2, maxQueue: 2})
	c := bench.Suite()[5] // count: the reconvergent circuit the cut engine wins on
	blif := benchBLIF(t, c)

	byEngine := map[string]mapResponse{}
	for _, eng := range []string{"tree", "mis", "cut"} {
		resp, mr := postMap(t, ts.URL+"/map?k=3&engine="+eng, blif, "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine=%s: HTTP %d", eng, resp.StatusCode)
		}
		if mr.Engine != eng {
			t.Errorf("engine=%s: response echoes %q", eng, mr.Engine)
		}
		if mr.LUTs == 0 || mr.BLIF == "" {
			t.Fatalf("engine=%s: empty result %+v", eng, mr)
		}
		byEngine[eng] = mr
	}
	if byEngine["cut"].LUTs >= byEngine["tree"].LUTs {
		t.Errorf("cut engine on count at K=3: %d LUTs, want fewer than tree's %d",
			byEngine["cut"].LUTs, byEngine["tree"].LUTs)
	}

	// Served answer == local map with the same engine, byte for byte.
	nw, err := chortle.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	opts := chortle.DefaultOptions(3)
	opts.Engine = chortle.EngineCut
	res, err := chortle.Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	var local strings.Builder
	if err := res.Circuit.WriteBLIF(&local); err != nil {
		t.Fatal(err)
	}
	if byEngine["cut"].BLIF != local.String() {
		t.Error("served cut circuit differs from local map with EngineCut")
	}

	// JSON body form: the engine field overrides the query parameter.
	body, err := json.Marshal(mapRequest{BLIF: blif, K: 3, Engine: "cut"})
	if err != nil {
		t.Fatal(err)
	}
	resp, mr := postMap(t, ts.URL+"/map?engine=tree", string(body), "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON engine: HTTP %d", resp.StatusCode)
	}
	if mr.Engine != "cut" || mr.BLIF != byEngine["cut"].BLIF {
		t.Errorf("JSON engine=cut should override query engine=tree, got %q", mr.Engine)
	}

	// Unknown engines are refused before costing a slot.
	resp, _ = postMap(t, ts.URL+"/map?engine=bogus", blif, "text/plain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("engine=bogus: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestFramedMatchesJSON maps every bundled circuit at K=4 on the tree
// and cut engines three ways from one warm cache: a plain JSON request,
// client.Map (which asks for the framed body), and client.Map against a
// server that answers only JSON. All three must agree on the BLIF, the
// LUT count and the cache hits, and the JSON reply keeps its fields.
func TestFramedMatchesJSON(t *testing.T) {
	s, m := newMapServer(serverConfig{
		cache:       chortle.NewSharedCache(chortle.SharedCacheConfig{}),
		reg:         chortle.NewMetricsRegistry(),
		maxInflight: 2,
		maxQueue:    4,
	})
	h := s.handler(m)
	var framed atomic.Int64
	direct := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if w.Header().Get("Content-Type") == client.MapMediaType {
			framed.Add(1)
		}
	}))
	defer direct.Close()
	jsonOnly := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	}))
	defer jsonOnly.Close()
	newClient := func(addr string) *client.Client {
		c, err := client.New(client.Config{Addrs: []string{addr}, MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	viaFramed, viaJSON := newClient(direct.URL), newClient(jsonOnly.URL)

	calls := 0
	for _, c := range append(bench.Suite(), bench.ExtendedSuite()...) {
		blif := benchBLIF(t, c)
		for _, eng := range []string{"tree", "cut"} {
			name := c.Name + "/" + eng
			url := direct.URL + "/map?k=4&engine=" + eng
			postMap(t, url, blif, "text/plain") // warms the cache
			resp, err := http.Post(url, "text/plain", strings.NewReader(blif))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("%s: JSON reply HTTP %d %q (%v)", name, resp.StatusCode, resp.Header.Get("Content-Type"), err)
			}
			var fields map[string]json.RawMessage
			var ref mapResponse
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &ref); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "blif,cache_hits,cache_misses,circuit,elapsed_ns,engine,k,luts,trace_id,trees" {
				t.Errorf("%s: JSON reply fields %s", name, got)
			}
			for _, via := range []*client.Client{viaFramed, viaJSON} {
				res, err := via.Map(context.Background(), client.MapRequest{BLIF: blif, K: 4, Engine: eng})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.BLIF != ref.BLIF || res.LUTs != ref.LUTs || res.CacheHits != ref.CacheHits ||
					res.CacheMisses != ref.CacheMisses || res.Circuit != ref.Circuit || res.Engine != eng ||
					res.K != 4 || res.Trees != ref.Trees {
					t.Errorf("%s via %s: %d LUTs, %d/%d hits/misses, circuit %q; JSON reply %d, %d/%d, %q; same BLIF %v",
						name, res.Addr, res.LUTs, res.CacheHits, res.CacheMisses, res.Circuit,
						ref.LUTs, ref.CacheHits, ref.CacheMisses, ref.Circuit, res.BLIF == ref.BLIF)
				}
			}
			calls++
		}
	}
	if framed.Load() != int64(calls) {
		t.Errorf("%d of %d client maps answered framed", framed.Load(), calls)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{maxInflight: 1, maxQueue: 1})
	cases := []struct {
		name, url, body, ct string
		want                int
	}{
		{"empty body", ts.URL + "/map", "", "text/plain", http.StatusBadRequest},
		{"bad blif", ts.URL + "/map", ".model oops\n", "text/plain", http.StatusBadRequest},
		{"bad k", ts.URL + "/map?k=banana", ".model m\n.end\n", "text/plain", http.StatusBadRequest},
		{"k out of range", ts.URL + "/map?k=99", benchBLIF(t, bench.Suite()[0]), "text/plain", http.StatusBadRequest},
		{"bad json", ts.URL + "/map", "{", "application/json", http.StatusBadRequest},
		{"json without blif", ts.URL + "/map", "{}", "application/json", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postMap(t, c.url, c.body, c.ct)
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /map: HTTP %d, want 405", resp.StatusCode)
	}
}

// badParamCases are query strings the admission check must refuse
// before a request takes a queue slot or parses its BLIF, with the
// exact message of the refusal.
var badParamCases = []struct{ name, query, msg string }{
	{"deadline overflows time.Duration", "deadline_ms=9223372036855", "deadline_ms 9223372036855 out of range [0,9223372036854]"},
	{"negative deadline", "deadline_ms=-5", "deadline_ms -5 out of range [0,9223372036854]"},
	{"k out of range", "k=99", "core: K=99 out of range [2,6]: K out of range"},
	{"negative budget", "budget_work_units=-1", "core: negative work-unit budget -1"},
	{"unknown engine", "engine=bogus", `core: unknown engine "bogus" (want tree, mis or cut)`},
	{"two bad numbers", "budget_work_units=x&deadline_ms=y", `bad budget_work_units "x"`},
}

// TestServerRefusesBadParamsBeforeSlot holds the only slot with no
// queue, so a request that reached acquire would answer 429: every bad
// parameter must answer 400 instead, and none may count as a 504.
func TestServerRefusesBadParamsBeforeSlot(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxInflight: 1})
	release, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("could not hold the slot")
	}
	defer release()
	blif := benchBLIF(t, bench.Suite()[0])
	for _, c := range badParamCases {
		resp, err := http.Post(ts.URL+"/map?"+c.query, "text/plain", strings.NewReader(blif))
		if err != nil {
			t.Fatal(err)
		}
		var eb errResponse
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Error != c.msg {
			t.Errorf("%s (%s): HTTP %d %q (%v), want 400 %q", c.name, c.query, resp.StatusCode, eb.Error, err, c.msg)
		}
	}
	mt := metricsText(t, s.cfg.reg)
	for _, want := range []string{
		fmt.Sprintf(`chortled_requests_total{code="400"} %d`, len(badParamCases)),
		`chortled_requests_total{code="429"} 0`,
		`chortled_requests_total{code="504"} 0`,
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q:\n%s", want, mt)
		}
	}
}

// TestParseMapRequestBoundsDeclaredLength declares the largest body
// allowed and sends 100 bytes: parsing may allocate bodyHint up front,
// not the declared length.
func TestParseMapRequestBoundsDeclaredLength(t *testing.T) {
	body := strings.Repeat("x", 100)
	r := httptest.NewRequest(http.MethodPost, "/map?k=4", strings.NewReader(body))
	r.ContentLength = maxRequestBody
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req, err := parseMapRequest(r, 4)
	runtime.ReadMemStats(&after)
	if err != nil || req.BLIF != body {
		t.Fatalf("parseMapRequest: %+v, %v", req, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a 100-byte body declared as %d bytes allocated %d bytes", maxRequestBody, grew)
	}
}

// FuzzMapRequest drives parseMapRequest and the admission check with
// arbitrary query strings and bodies. Neither may panic, and whatever
// they admit must be mappable: K in 2..6, an engine that parses, and a
// deadline that is a non-negative duration.
func FuzzMapRequest(f *testing.F) {
	const blif = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
	for _, c := range badParamCases {
		f.Add(c.query, blif, false)
	}
	f.Add("k=4&deadline_ms=250&engine=cut", blif, false)
	f.Add("", `{"blif":"x","k":99,"deadline_ms":-5}`, true)
	f.Add("k=3", `{"blif":"x","engine":"mis","budget_work_units":7}`, true)
	f.Fuzz(func(t *testing.T, query, body string, asJSON bool) {
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/map", RawQuery: query},
			Header: http.Header{},
			Body:   io.NopCloser(strings.NewReader(body)),
		}
		if asJSON {
			r.Header.Set("Content-Type", "application/json")
		}
		req, err := parseMapRequest(r, 4)
		if err != nil {
			return
		}
		opts, deadline, err := admit(req)
		if err != nil {
			return
		}
		if opts.K < 2 || opts.K > 6 {
			t.Fatalf("admitted K=%d", opts.K)
		}
		if _, err := chortle.ParseEngine(req.Engine); err != nil {
			t.Fatalf("admitted engine %q: %v", req.Engine, err)
		}
		if deadline < 0 || deadline/time.Millisecond != time.Duration(req.DeadlineMS) {
			t.Fatalf("deadline_ms %d admitted as %v", req.DeadlineMS, deadline)
		}
	})
}

// TestServerAdmission exercises the bounded queue deterministically at
// the acquire level: slot, queue, overflow, cancellation.
func TestServerAdmission(t *testing.T) {
	s, _ := newMapServer(serverConfig{
		cache: chortle.NewSharedCache(chortle.SharedCacheConfig{}),
		reg:   chortle.NewMetricsRegistry(),

		maxInflight: 1,
		maxQueue:    1,
	})
	release1, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire refused")
	}

	// Second acquire parks in the queue.
	got := make(chan func(), 1)
	go func() {
		r, ok := s.acquire(context.Background())
		if !ok {
			got <- nil
			return
		}
		got <- r
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	// Queue full: third acquire is refused immediately.
	if _, ok := s.acquire(context.Background()); ok {
		t.Fatal("over-queue acquire admitted")
	}

	// A queued waiter whose context ends gives up its queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := s.acquire(ctx); ok {
		t.Fatal("cancelled acquire admitted")
	}

	release1()
	select {
	case r := <-got:
		if r == nil {
			t.Fatal("queued acquire refused after slot freed")
		}
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire never admitted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerSoak is the acceptance soak: >=8 concurrent requests with
// mixed K against one shared cache, one client cancelling mid-flight,
// one over-budget request degrading, then a graceful drain. Run under
// -race in CI.
func TestServerSoak(t *testing.T) {
	srv, ts := newTestServer(t, serverConfig{maxInflight: 8, maxQueue: 32})
	suite := bench.Suite()
	circuits := make([]string, 4)
	refs := make(map[string]string) // "i/k" -> reference BLIF, no cache
	for i := range circuits {
		circuits[i] = benchBLIF(t, suite[i])
		nw, err := chortle.ReadBLIF(strings.NewReader(circuits[i]))
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 5; k++ {
			res, err := chortle.Map(nw, chortle.DefaultOptions(k))
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := res.Circuit.WriteBLIF(&sb); err != nil {
				t.Fatal(err)
			}
			refs[fmt.Sprintf("%d/%d", i, k)] = sb.String()
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ci, k := g%len(circuits), 2+g%4
			resp, err := http.Post(fmt.Sprintf("%s/map?k=%d", ts.URL, k),
				"text/plain", strings.NewReader(circuits[ci]))
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("goroutine %d: HTTP %d", g, resp.StatusCode)
				return
			}
			var mr mapResponse
			if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
				errs <- err
				return
			}
			if want := refs[fmt.Sprintf("%d/%d", ci, k)]; mr.BLIF != want {
				errs <- fmt.Errorf("goroutine %d: circuit %d K=%d output differs under shared cache", g, ci, k)
			}
		}(g)
	}

	// One client cancels mid-flight; the server must shrug it off.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/map?k=5", strings.NewReader(circuits[3]))
		if err != nil {
			errs <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close() // mapped before the cancel landed; also fine
		}
	}()

	// One request with a starvation budget: it must still answer 200
	// with a valid circuit, listing its degraded trees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/map?k=5&budget_work_units=1",
			"text/plain", strings.NewReader(circuits[0]))
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("over-budget request: HTTP %d", resp.StatusCode)
			return
		}
		var mr mapResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			errs <- err
			return
		}
		if len(mr.Degraded) == 0 {
			errs <- fmt.Errorf("budget_work_units=1 degraded nothing")
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Graceful drain: health flips to 503 and new mapping work is
	// refused, without disturbing the completed state.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: HTTP %d", resp.StatusCode)
	}
	srv.drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d", resp.StatusCode)
	}
	mresp, _ := postMap(t, ts.URL+"/map?k=4", circuits[0], "text/plain")
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("map while draining: HTTP %d", mresp.StatusCode)
	}
}

// TestServerBusy fills the only slot and the whole queue with parked
// requests, then checks the next one bounces with 429.
func TestServerBusy(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxInflight: 1, maxQueue: 1})
	release, ok := s.acquire(context.Background())
	if !ok {
		t.Fatal("direct acquire refused")
	}
	defer release()

	queued := make(chan struct{})
	go func() {
		// Parks in the queue behind the held slot.
		close(queued)
		r, ok := s.acquire(context.Background())
		if ok {
			r()
		}
	}()
	<-queued
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	resp, _ := postMap(t, ts.URL+"/map?k=4", benchBLIF(t, bench.Suite()[0]), "text/plain")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered HTTP %d, want 429", resp.StatusCode)
	}
}

// TestMapErrorClassification pins how handleMap answers a failed map,
// case by case: the status and body, which chortled_requests_total
// code is bumped, the decision recorded, and whether an incident is
// logged. A mapper bug (*chortle.InternalError) is a 500 with its stack
// logged, exactly like a handler panic, not a 400 blaming the input.
func TestMapErrorClassification(t *testing.T) {
	internal := &chortle.InternalError{
		Value: errors.New("cut: invariant broken"),
		Stack: []byte("goroutine 7 [running]:\nchortle/internal/cut.broken()"),
	}
	cases := []struct {
		name     string
		err      error
		code     int    // 0: nothing is written
		body     string // the JSON error text
		decision string
		incident bool
	}{
		{"canceled", context.Canceled, 0, "", "", false},
		{"deadline", fmt.Errorf("cut: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, "deadline exceeded", chortle.ReasonDeadlineExpired, false},
		{"internal", internal, http.StatusInternalServerError, "internal error: cut: invariant broken", chortle.ReasonPanic, true},
		{"wrapped internal", fmt.Errorf("mapping: %w", internal), http.StatusInternalServerError, "internal error: cut: invariant broken", chortle.ReasonPanic, true},
		{"input", fmt.Errorf("network: %w", chortle.ErrCycle), http.StatusBadRequest, "network: " + chortle.ErrCycle.Error(), "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := chortle.NewMetricsRegistry()
			rec := chortle.NewFlightRecorder(16, 0)
			var log testLog
			s, m := newMapServer(serverConfig{
				reg: reg, cache: chortle.NewSharedCache(chortle.SharedCacheConfig{}),
				recorder: rec, logf: log.logf,
			})
			st := &requestState{rt: chortle.NewReqTrace("chortled", "request", chortle.TraceID{}, chortle.SpanID{}, 8, 8)}
			w := httptest.NewRecorder()
			s.answerMapErr(w, httptest.NewRequest(http.MethodPost, "/map", nil), m, st, chortle.EngineCut, c.err)

			if c.code == 0 {
				if w.Body.Len() != 0 {
					t.Errorf("wrote %q, want nothing", w.Body.String())
				}
			} else {
				var body errResponse
				if w.Code != c.code {
					t.Errorf("HTTP %d, want %d", w.Code, c.code)
				}
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error != c.body {
					t.Errorf("body %q (%v), want error %q", w.Body.String(), err, c.body)
				}
			}
			mt := metricsText(t, reg)
			for _, code := range []int{400, 500, 503} {
				want := 0
				if code == c.code {
					want = 1
				}
				if line := fmt.Sprintf("chortled_requests_total{code=\"%d\"} %d\n", code, want); !strings.Contains(mt, line) {
					t.Errorf("metrics lack %q", line)
				}
			}
			if st.decision != c.decision {
				t.Errorf("decision %q, want %q", st.decision, c.decision)
			}
			var ringReasons []string
			for _, e := range rec.Snapshot() {
				if e.Kind == chortle.FlightDecision {
					ringReasons = append(ringReasons, e.Decision.Reason)
				}
			}
			if c.decision != "" && (len(ringReasons) != 1 || ringReasons[0] != c.decision) || c.decision == "" && len(ringReasons) != 0 {
				t.Errorf("flight ring decisions %q, want %q", ringReasons, c.decision)
			}
			logged := log.String()
			if got := strings.Contains(logged, "INCIDENT") && strings.Contains(logged, "chortle/internal/cut.broken()"); got != c.incident {
				t.Errorf("incident with stack logged = %v, want %v; log:\n%s", got, c.incident, logged)
			}
		})
	}
}

// stringSink is a ResponseWriter that records each string written to it
// through WriteString.
type stringSink struct {
	*httptest.ResponseRecorder
	strings []string
}

func (s *stringSink) WriteString(str string) (int, error) {
	s.strings = append(s.strings, str)
	return s.ResponseRecorder.WriteString(str)
}

// TestStatusRecorderPassesStrings writes a string through the two
// recorders a /map response passes (the request trace's and the panic
// isolator's): it must reach the underlying writer's WriteString, not be
// copied into a byte slice for Write, and both must record the 200.
func TestStatusRecorderPassesStrings(t *testing.T) {
	sink := &stringSink{ResponseRecorder: httptest.NewRecorder()}
	inner := &statusRecorder{ResponseWriter: sink}
	outer := &statusRecorder{ResponseWriter: inner}
	if _, err := io.WriteString(outer, "body"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sink.strings, []string{"body"}) {
		t.Fatalf("underlying WriteString got %q, want [\"body\"]", sink.strings)
	}
	if sink.Body.String() != "body" {
		t.Fatalf("body %q", sink.Body.String())
	}
	for _, sr := range []*statusRecorder{inner, outer} {
		if !sr.wrote || sr.code != http.StatusOK {
			t.Fatalf("recorder wrote=%v code=%d, want a committed 200", sr.wrote, sr.code)
		}
	}
}
