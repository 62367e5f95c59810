// Package client is a resilient HTTP client for the chortled mapping
// server: context-aware retries with exponential backoff and full
// jitter, Retry-After awareness, a half-open circuit breaker per server
// address, and optional hedged requests against replica addresses.
//
// The client is built for the failure modes a chortled fleet actually
// exhibits: 429 (admission queue full), 503 (draining, overload valve,
// or queue-deadline drop — all carrying Retry-After), 504 (deadline
// expired while queued), 500 (isolated per-request panic), and plain
// network errors. All of those are retryable — the server either
// refused cheaply or failed without side effects, since mapping is
// pure. Client errors (400) are permanent and returned immediately.
//
//	c, err := client.New(client.Config{Addrs: []string{"http://10.0.0.1:8080"}})
//	res, err := c.Map(ctx, client.MapRequest{BLIF: blifText, K: 4})
//
// With more than one address, requests rotate across healthy addresses
// and — when Config.HedgeDelay is set — a slow attempt is hedged by a
// duplicate request to the next healthy address, first answer wins.
// Mapping is deterministic and side-effect free, so hedging never
// produces divergent answers, only lower tail latency.
//
// On the wire, Map sends the BLIF itself as the request body with the
// options in the query string, and asks for MapMediaType ahead of JSON.
// A server that knows that type answers with the mapped BLIF verbatim
// after one line of JSON metadata; any other answer is read as JSON.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chortle"
)

// MapMediaType is the Content-Type of a framed /map success: one line
// of JSON metadata (a MapResponse without "blif"), a newline, then the
// mapped BLIF, byte for byte. Map asks for it in its Accept header; a
// request that does not ask gets a JSON body.
const MapMediaType = "application/vnd.chortle.map"

// maxResponseBody bounds the body a Map attempt reads. bodyHint bounds
// how much of a declared Content-Length is allocated before the bytes
// arrive; a longer body grows the buffer as it arrives.
const (
	maxResponseBody = 256 << 20
	bodyHint        = 64 << 10
)

// errResponseTooLarge refuses a body over the client's limit. Mapping
// is deterministic, so another attempt would get the same body: it is
// not retried.
var errResponseTooLarge = errors.New("client: response body too large")

// MapRequest is one mapping request. BLIF is required and is sent as
// the request body; the options go in the query string, and zero-valued
// options take the server's defaults.
type MapRequest struct {
	BLIF string
	K    int
	// Engine selects the server-side mapping algorithm: "tree" (default),
	// "mis" or "cut".
	Engine          string
	BudgetWorkUnits int64
	// DeadlineMS bounds the server-side solve. When zero and the context
	// has a deadline, the client derives it from the context so the
	// server's queue-deadline admission can drop requests that would
	// miss it anyway.
	DeadlineMS int64
}

// MapResponse is the server's success body: a JSON object, or the
// metadata line and BLIF of a MapMediaType body.
type MapResponse struct {
	Circuit     string   `json:"circuit"`
	K           int      `json:"k"`
	Engine      string   `json:"engine"`
	LUTs        int      `json:"luts"`
	Trees       int      `json:"trees"`
	Degraded    []string `json:"degraded,omitempty"`
	CacheHits   int      `json:"cache_hits"`
	CacheMisses int      `json:"cache_misses"`
	ElapsedNS   int64    `json:"elapsed_ns"`
	BLIF        string   `json:"blif"`

	// TraceID is the request's trace identifier — the one the client
	// generated (when Config.Spans is set) or the server assigned, echoed
	// from the response. Grep it in chortled's -access-log to find the
	// server-side view of this exact request.
	TraceID string `json:"trace_id,omitempty"`

	// Addr is the server address that answered (useful under hedging).
	Addr string `json:"-"`

	// SLOStatus is the server's X-Slo-Status header: "warn" or
	// "critical" when the answering server's SLO watchdog is burning
	// error budget, empty when healthy (the header is only sent while
	// degraded). Callers can use it to shed optional load before the
	// server starts refusing.
	SLOStatus string `json:"-"`
}

// APIError is a non-2xx server answer.
type APIError struct {
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint, zero if absent.
	RetryAfter time.Duration
	// SLOStatus is the server's X-Slo-Status header, empty if absent —
	// a refusal stamped "critical" means the whole service is degraded,
	// not just this request.
	SLOStatus string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned HTTP %d: %s", e.Code, e.Message)
}

// Retryable reports whether the failure is safe and useful to retry:
// the server refused cheaply (429/503/504) or failed a pure computation
// (5xx). Client errors are permanent.
func (e *APIError) Retryable() bool {
	return e.Code == http.StatusTooManyRequests || e.Code >= 500
}

// ErrNoHealthyAddr is returned (wrapped) when every configured address
// has an open circuit breaker and retries are exhausted.
var ErrNoHealthyAddr = errors.New("client: all server addresses have open circuit breakers")

// Config tunes a Client. Zero fields take the documented defaults.
type Config struct {
	// Addrs are the server base URLs ("http://host:port"). The first is
	// the preferred address; the rest are replicas used for rotation,
	// breaker failover, and hedging. At least one is required.
	Addrs []string

	// HTTPClient is the transport; default is a client with a 30 s
	// overall timeout (per attempt; the context bounds the whole call).
	HTTPClient *http.Client

	// MaxRetries is how many times a retryable failure is retried after
	// the first attempt. Default 4. Zero keeps the default; negative
	// disables retries.
	MaxRetries int

	// BaseBackoff and MaxBackoff bound the exponential backoff. The
	// sleep before retry n is a full-jitter draw from
	// [0, min(MaxBackoff, BaseBackoff·2ⁿ)], raised to the server's
	// Retry-After when one was sent. Defaults 50 ms and 5 s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// HedgeDelay, when positive, launches a duplicate of a slow attempt
	// against the next healthy address after this delay; the first
	// answer wins and the loser is cancelled. Needs ≥ 2 addresses.
	HedgeDelay time.Duration

	// FailureThreshold consecutive retryable failures open an address's
	// breaker (default 5). An open breaker rejects instantly until
	// Cooldown (default 2 s) has passed, then admits one probe
	// (half-open): success closes the breaker, failure re-opens it.
	FailureThreshold int
	Cooldown         time.Duration

	// Metrics, when non-nil, registers the client's observability
	// series: chortle_client_requests_total{outcome=...},
	// chortle_client_retries_total, chortle_client_hedges_total,
	// chortle_client_breaker_transitions_total{to=...} and the
	// chortle_client_breaker_open gauge.
	Metrics *chortle.MetricsRegistry

	// Spans, when non-nil, turns on client-side tracing: every Map call
	// opens a trace, propagates its ID to the server in the W3C
	// traceparent header, and records one span per HTTP attempt (hedges
	// included) plus each backoff pause into this recorder. Attempt
	// spans carry the address, status code, and any breaker transition
	// the attempt caused. Stream them with chortle.NewSpanJSONL and
	// merge the file with chortled's -access-log in chortle-traceview
	// for a single client+server timeline. Nil costs nothing.
	Spans chortle.SpanRecorder
}

// Stats is a point-in-time snapshot of client activity.
type Stats struct {
	Requests        int64 // Map calls
	Attempts        int64 // HTTP attempts (including hedges)
	Retries         int64 // backoff-then-retry transitions
	Hedges          int64 // hedge requests launched
	BreakerOpens    int64 // closed/half-open -> open transitions
	BreakerCloses   int64 // half-open -> closed transitions
	BreakersOpenNow int64 // addresses currently open or half-open
}

// Client is safe for concurrent use.
type Client struct {
	cfg      Config
	http     *http.Client
	breakers []*breaker
	next     atomic.Int64 // rotation cursor

	requests, attempts, retries, hedges atomic.Int64
	breakerOpens, breakerCloses         atomic.Int64

	mOK, mErr, mRetries, mHedges    counter
	mToOpen, mToHalfOpen, mToClosed counter

	// test seams
	sleep   func(ctx context.Context, d time.Duration) error
	jitter  func(max time.Duration) time.Duration
	now     func() time.Time
	maxBody int64 // bytes an attempt reads before refusing the body
}

// counter is the narrow metrics dependency, satisfied by the registry's
// Counter and by a no-op when no registry is configured.
type counter interface{ Inc() }

type noopCounter struct{}

func (noopCounter) Inc() {}

// New validates cfg and returns a ready Client.
func New(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("client: Config.Addrs must name at least one server")
	}
	for i, a := range cfg.Addrs {
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			return nil, fmt.Errorf("client: address %d (%q) must be a base URL", i, a)
		}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{
		cfg:  cfg,
		http: hc,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
		jitter: func(max time.Duration) time.Duration {
			if max <= 0 {
				return 0
			}
			return time.Duration(rand.Int63n(int64(max)))
		},
		now:     time.Now,
		maxBody: maxResponseBody,
	}
	c.breakers = make([]*breaker, len(cfg.Addrs))
	for i := range c.breakers {
		c.breakers[i] = &breaker{c: c}
	}
	c.mOK, c.mErr, c.mRetries, c.mHedges = noopCounter{}, noopCounter{}, noopCounter{}, noopCounter{}
	c.mToOpen, c.mToHalfOpen, c.mToClosed = noopCounter{}, noopCounter{}, noopCounter{}
	if reg := cfg.Metrics; reg != nil {
		c.mOK = reg.Counter("chortle_client_requests_total", "Client mapping calls by outcome.", chortle.MetricsLabel{Key: "outcome", Value: "ok"})
		c.mErr = reg.Counter("chortle_client_requests_total", "Client mapping calls by outcome.", chortle.MetricsLabel{Key: "outcome", Value: "error"})
		c.mRetries = reg.Counter("chortle_client_retries_total", "Retries after retryable failures.")
		c.mHedges = reg.Counter("chortle_client_hedges_total", "Hedge requests launched against replicas.")
		c.mToOpen = reg.Counter("chortle_client_breaker_transitions_total", "Circuit breaker state transitions.", chortle.MetricsLabel{Key: "to", Value: "open"})
		c.mToHalfOpen = reg.Counter("chortle_client_breaker_transitions_total", "Circuit breaker state transitions.", chortle.MetricsLabel{Key: "to", Value: "half_open"})
		c.mToClosed = reg.Counter("chortle_client_breaker_transitions_total", "Circuit breaker state transitions.", chortle.MetricsLabel{Key: "to", Value: "closed"})
		reg.GaugeFunc("chortle_client_breaker_open", "Addresses whose circuit breaker is currently open or half-open.",
			func() float64 { return float64(c.openBreakers()) })
	}
	return c, nil
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:        c.requests.Load(),
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		Hedges:          c.hedges.Load(),
		BreakerOpens:    c.breakerOpens.Load(),
		BreakerCloses:   c.breakerCloses.Load(),
		BreakersOpenNow: int64(c.openBreakers()),
	}
}

func (c *Client) openBreakers() int {
	n := 0
	for _, b := range c.breakers {
		if b.snapshotState() != breakerClosed {
			n++
		}
	}
	return n
}

// Map sends one mapping request, retrying retryable failures with
// exponential backoff and full jitter until the context ends or the
// retry budget is spent. The returned response's BLIF is exactly what a
// local chortle.Map of the same network and options would emit.
func (c *Client) Map(ctx context.Context, req MapRequest) (res *MapResponse, err error) {
	if req.BLIF == "" {
		return nil, errors.New("client: MapRequest.BLIF is empty")
	}
	if req.DeadlineMS == 0 {
		if dl, ok := ctx.Deadline(); ok {
			if ms := time.Until(dl).Milliseconds(); ms > 0 {
				req.DeadlineMS = ms
			}
		}
	}
	query := encodeQuery(req)
	c.requests.Add(1)

	// rt is nil (and every span call inert) unless Config.Spans asked
	// for client-side tracing; the flush runs on every return path so a
	// context-expired call still leaves a complete client timeline.
	rt := c.newTrace()
	if rt != nil {
		defer func() {
			if err != nil {
				rt.AnnotateRoot("err", err.Error())
			}
			for _, sp := range rt.Finish(chortle.SpanID{}) {
				c.cfg.Spans.RecordSpan(sp)
			}
		}()
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return nil, err
		}
		addrIdx, ok := c.pickAddr()
		if !ok {
			lastErr = c.stampErr(ErrNoHealthyAddr)
		} else {
			res, err := c.attemptWithHedge(ctx, rt, addrIdx, req.BLIF, query)
			if err == nil {
				c.mOK.Inc()
				if rt != nil {
					rt.AnnotateRoot("winner_addr", res.Addr)
				}
				return res, nil
			}
			lastErr = err
			if !retryable(err) || ctx.Err() != nil {
				c.mErr.Inc()
				return nil, err
			}
		}
		if attempt >= c.cfg.MaxRetries {
			c.mErr.Inc()
			return nil, fmt.Errorf("client: %d attempts failed: %w", attempt+1, lastErr)
		}
		c.retries.Add(1)
		c.mRetries.Inc()
		bo := rt.Start("backoff")
		if rt != nil {
			bo.Annotate("after", lastErr.Error())
		}
		sleepErr := c.sleep(ctx, c.backoff(attempt, lastErr))
		bo.End()
		if sleepErr != nil {
			c.mErr.Inc()
			return nil, fmt.Errorf("%w (last failure: %v)", sleepErr, lastErr)
		}
	}
}

// encodeQuery puts the request's options in a /map query string,
// leaving out those at their zero value (the server's default).
func encodeQuery(req MapRequest) string {
	q := url.Values{}
	set := func(name string, v int64) {
		if v != 0 {
			q.Set(name, strconv.FormatInt(v, 10))
		}
	}
	set("k", int64(req.K))
	set("budget_work_units", req.BudgetWorkUnits)
	set("deadline_ms", req.DeadlineMS)
	if req.Engine != "" {
		q.Set("engine", req.Engine)
	}
	return q.Encode()
}

// newTrace opens a client-side request trace, or returns nil (the
// inert state) when tracing is off.
func (c *Client) newTrace() *chortle.ReqTrace {
	if c.cfg.Spans == nil {
		return nil
	}
	return chortle.NewReqTrace("client", "map", chortle.TraceID{}, chortle.SpanID{}, 128, 1)
}

// stampErr marks sentinel errors as retryable pauses without wrapping
// noise; currently identity, kept for symmetry.
func (c *Client) stampErr(err error) error { return err }

// backoff computes the pre-retry sleep: full jitter over the
// exponentially grown window, raised to the server's Retry-After hint.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	window := c.cfg.BaseBackoff << uint(attempt)
	if window > c.cfg.MaxBackoff || window <= 0 {
		window = c.cfg.MaxBackoff
	}
	d := c.jitter(window)
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
		if d > c.cfg.MaxBackoff {
			d = c.cfg.MaxBackoff
		}
	}
	return d
}

// retryable classifies an attempt failure. Network-level errors and
// retryable API errors qualify; context expiry and client errors don't.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrNoHealthyAddr) {
		return true // waiting out a cooldown may free an address
	}
	if errors.Is(err, errResponseTooLarge) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	return true // transport-level failure
}

// pickAddr returns the next address whose breaker admits a request,
// rotating so retries and concurrent calls spread across the fleet.
func (c *Client) pickAddr() (int, bool) {
	start := int(c.next.Add(1) - 1)
	for i := 0; i < len(c.breakers); i++ {
		idx := (start + i) % len(c.breakers)
		if c.breakers[idx].allow() {
			return idx, true
		}
	}
	return 0, false
}

// attemptWithHedge performs one logical attempt: the request to the
// chosen address, plus — after HedgeDelay, when configured and another
// address is healthy — a duplicate to the next address. First answer
// (success or permanent failure) wins; the loser's context is
// cancelled. Breakers settle per physical request.
func (c *Client) attemptWithHedge(ctx context.Context, rt *chortle.ReqTrace, addrIdx int, blif, query string) (*MapResponse, error) {
	if c.cfg.HedgeDelay <= 0 || len(c.cfg.Addrs) < 2 {
		return c.do(ctx, rt, "attempt", addrIdx, blif, query)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res *MapResponse
		err error
	}
	results := make(chan outcome, 2)
	launched := 1
	go func() {
		res, err := c.do(actx, rt, "attempt", addrIdx, blif, query)
		results <- outcome{res, err}
	}()
	hedgeTimer := time.NewTimer(c.cfg.HedgeDelay)
	defer hedgeTimer.Stop()

	var firstErr error
	for {
		select {
		case <-hedgeTimer.C:
			if hIdx, ok := c.pickAddr(); ok && hIdx != addrIdx {
				launched++
				c.hedges.Add(1)
				c.mHedges.Inc()
				go func() {
					res, err := c.do(actx, rt, "hedge", hIdx, blif, query)
					results <- outcome{res, err}
				}()
			}
		case o := <-results:
			if o.err == nil {
				return o.res, nil
			}
			if !retryable(o.err) && ctx.Err() == nil {
				return nil, o.err // permanent answer beats a pending hedge
			}
			if firstErr == nil {
				firstErr = o.err
			}
			launched--
			if launched == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// do performs one physical HTTP request and settles the address's
// breaker on the result. spanName distinguishes primary attempts from
// hedges on the trace; the attempt span carries the address, the status
// code, and any breaker transition this attempt caused. The BLIF goes
// out as the body, read in place.
func (c *Client) do(ctx context.Context, rt *chortle.ReqTrace, spanName string, addrIdx int, blif, query string) (*MapResponse, error) {
	c.attempts.Add(1)
	b := c.breakers[addrIdx]
	sp := rt.Start(spanName)
	stateBefore := b.snapshotState()
	settle := func(code int) {
		if rt == nil {
			return
		}
		sp.Annotate("addr", c.cfg.Addrs[addrIdx])
		if code != 0 {
			sp.Annotate("code", strconv.Itoa(code))
		}
		if after := b.snapshotState(); after != stateBefore {
			sp.Annotate("breaker", after.String())
		}
		sp.End()
	}
	target := strings.TrimSuffix(c.cfg.Addrs[addrIdx], "/") + "/map"
	if query != "" {
		target += "?" + query
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, target, strings.NewReader(blif))
	if err != nil {
		settle(0)
		return nil, err
	}
	hreq.Header.Set("Content-Type", "text/plain")
	hreq.Header.Set("Accept", MapMediaType+", application/json")
	if rt != nil {
		// The attempt span is the server root's parent, so each retry or
		// hedge becomes its own subtree of this one trace.
		hreq.Header.Set(chortle.TraceparentHeader, chortle.FormatTraceparent(rt.TraceID(), sp.ID()))
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		if ctx.Err() == nil {
			b.onFailure()
		}
		settle(0)
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := readBody(resp.Body, resp.ContentLength, c.maxBody)
	if errors.Is(err, errResponseTooLarge) {
		b.onSuccess() // the server answered; it is healthy
		settle(resp.StatusCode)
		return nil, fmt.Errorf("%w: HTTP %d from %s is over %d bytes", err, resp.StatusCode, c.cfg.Addrs[addrIdx], c.maxBody)
	}
	if err != nil {
		b.onFailure()
		settle(resp.StatusCode)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{
			Code:       resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			SLOStatus:  resp.Header.Get("X-Slo-Status"),
		}
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &eb) == nil && eb.Error != "" {
			apiErr.Message = eb.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(payload))
		}
		if apiErr.Retryable() {
			b.onFailure()
		} else {
			b.onSuccess() // the server answered deliberately; it is healthy
		}
		settle(resp.StatusCode)
		return nil, apiErr
	}
	var mr *MapResponse
	if strings.HasPrefix(resp.Header.Get("Content-Type"), MapMediaType) {
		mr, err = decodeMapResponse(payload)
	} else {
		mr = new(MapResponse)
		err = json.Unmarshal(payload, mr)
	}
	if err != nil {
		b.onFailure()
		settle(resp.StatusCode)
		return nil, fmt.Errorf("client: decoding response from %s: %w", c.cfg.Addrs[addrIdx], err)
	}
	b.onSuccess()
	mr.Addr = c.cfg.Addrs[addrIdx]
	mr.SLOStatus = resp.Header.Get("X-Slo-Status")
	if mr.TraceID == "" {
		mr.TraceID = resp.Header.Get("X-Trace-Id")
	}
	settle(resp.StatusCode)
	return mr, nil
}

// readBody reads r to the end into one buffer, presized from the
// declared length n up to bodyHint. It reads one byte past limit, so
// that a longer body is refused with errResponseTooLarge, not cut short.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n > 0 {
		buf.Grow(int(min(n, bodyHint)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	if err == nil && int64(buf.Len()) > limit {
		err = errResponseTooLarge
	}
	return buf.Bytes(), err
}

// decodeMapResponse decodes a MapMediaType body: the metadata JSON up to
// the first newline, and everything after it as the BLIF.
func decodeMapResponse(body []byte) (*MapResponse, error) {
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return nil, errors.New("framed response has no metadata line")
	}
	var mr MapResponse
	if err := json.Unmarshal(body[:nl], &mr); err != nil {
		return nil, err
	}
	mr.BLIF = string(body[nl+1:])
	return &mr, nil
}

func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// --- circuit breaker ---

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one address's half-open circuit breaker. Transitions:
// closed → open after FailureThreshold consecutive retryable failures;
// open → half-open after Cooldown, admitting exactly one probe;
// half-open → closed on probe success, → open on probe failure.
type breaker struct {
	c *Client

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

func (b *breaker) snapshotState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.c.now().Sub(b.openedAt) >= b.c.cfg.Cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			b.c.mToHalfOpen.Inc()
			return true
		}
		return false
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		b.c.breakerCloses.Add(1)
		b.c.mToClosed.Inc()
	}
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.open()
	case breakerClosed:
		b.failures++
		if b.failures >= b.c.cfg.FailureThreshold {
			b.open()
		}
	case breakerOpen:
		// A straggling in-flight failure; stay open, refresh nothing.
	}
}

// open transitions to open. Callers hold b.mu.
func (b *breaker) open() {
	b.state = breakerOpen
	b.openedAt = b.c.now()
	b.probing = false
	b.failures = 0
	b.c.breakerOpens.Add(1)
	b.c.mToOpen.Inc()
}
