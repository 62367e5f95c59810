package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chortle"
	"chortle/client"
)

// The serving workloads exec the real chortled binary on a loopback
// port and drive it through chortle/client, the way a remote user would.
// Each set-up repetition starts a fresh server; the last one serves the
// window.

const (
	// freshRate is serve_fresh's arrival rate, about a quarter of what
	// two closed-loop clients sustain on its mix on a 2-core machine.
	// At half that capacity, queueing behind the largest designs made
	// the latency percentiles swing by 15-25% from run to run.
	freshRate = 12.0
	// freshCacheEntries bounds serve_fresh's shape cache so that it
	// evicts inside even a short window.
	freshCacheEntries = 4096
	// warmFresh is serve_fresh's warm-up design count (never measured).
	warmFresh = 16
	// maxOutstanding bounds serve_fresh's calls in flight; beyond it the
	// generator falls behind and reports its lateness.
	maxOutstanding = 64
	// closedRound is how long closed-loop callers run between
	// calibration samples.
	closedRound = 100 * time.Millisecond
	// openRound is how much of the open loop's schedule runs between
	// calibration pauses; each pause takes openBurst samples, as many as
	// set one moment's speed.
	openRound = time.Second
	openBurst = calNear
	// traceFileMaps bounds the maps written to trace.json.
	traceFileMaps = 200
)

func runServeRepeat(ctx context.Context, cfg config, opts []sessionOpts) ([]*session, error) {
	inputs, err := suiteInputs(cfg.goldenDir, chortle.SuiteNames(), []int{3, 4, 5}, chortle.EngineTree)
	if err != nil {
		return nil, err
	}
	return runSessions(opts, func(o sessionOpts) (*session, error) {
		drive := func(ctx context.Context, c *client.Client, s *session) (err error) {
			s.maps, s.loaded, err = closedLoop(ctx, o.window, connections, cfg.seed, cfg.cal, func(ctx context.Context, rng *rand.Rand) mapRecord {
				i := rng.Intn(len(inputs))
				return callServer(ctx, c, inputs[i], i, time.Now(), 0)
			})
			return err
		}
		return serveSession(ctx, cfg, o, serveSpec{inputs: inputs, warm: inputs, drive: drive})
	})
}

func runServeFresh(ctx context.Context, cfg config, opts []sessionOpts) ([]*session, error) {
	n := 0
	for _, o := range opts {
		n = max(n, int(freshRate*o.window.Seconds()+0.5))
	}
	pool, err := freshPool(max(n, 1), 0)
	if err != nil {
		return nil, err
	}
	warm, err := freshPool(warmFresh, 1<<20)
	if err != nil {
		return nil, err
	}
	args := []string{"-cache-entries", strconv.Itoa(freshCacheEntries)}
	return runSessions(opts, func(o sessionOpts) (*session, error) {
		count := max(int(freshRate*o.window.Seconds()+0.5), 1)
		inputs := pool[:count]
		rng := rand.New(rand.NewSource(cfg.seed))
		order := rng.Perm(count)
		offsets := arrivals(rng, count, o.window)
		drive := func(ctx context.Context, c *client.Client, s *session) (err error) {
			s.openLoop = true
			s.maps, s.loaded, err = openLoop(ctx, offsets, maxOutstanding, cfg.cal, func(ctx context.Context, j int, due time.Time) mapRecord {
				return callDue(ctx, c, inputs[order[j]], order[j], due)
			})
			return err
		}
		return serveSession(ctx, cfg, o, serveSpec{inputs: inputs, warm: warm, args: args, drive: drive})
	})
}

// arrivals draws n Poisson arrival times inside the window: n uniform
// points, sorted. Conditioning on the count fixes the offered rate, so
// maps_per_s does not swing with the number of arrivals a seed draws.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closedLoop runs `clients` callers, each sending its next map as soon
// as the previous one returns, until the window ends. Every closedRound
// the callers finish their maps and wait while the calibrator samples
// the idle machine.
func closedLoop(ctx context.Context, window time.Duration, clients int, seed int64, cal *calibrator,
	send func(ctx context.Context, rng *rand.Rand) mapRecord) ([]mapRecord, []loadedSpan, error) {
	rngs := make([]*rand.Rand, clients)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
	}
	var (
		out    []mapRecord
		loaded []loadedSpan
	)
	end := time.Now().Add(window)
	for time.Now().Before(end) && ctx.Err() == nil {
		start := time.Now()
		stop := start.Add(closedRound)
		if stop.After(end) {
			stop = end
		}
		recs := make([][]mapRecord, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(stop) && ctx.Err() == nil {
					recs[w] = append(recs[w], send(ctx, rngs[w]))
				}
			}(w)
		}
		wg.Wait()
		loaded = append(loaded, loadedSpan{start: start, d: time.Since(start)})
		for _, r := range recs {
			out = append(out, r...)
		}
		if err := cal.sample(); err != nil {
			return nil, nil, err
		}
	}
	return out, loaded, ctx.Err()
}

// openLoop sends call j offsets[j] into the schedule, each from its own
// goroutine, whatever happened to earlier calls. Calls are timed from
// their due time, so a stall charges its wait to every call behind it.
// At most maxOutstanding calls run at once; a call held back by that
// bound (or by a slow generator) is sent late, and call sees its due
// time so it can report the lateness. Every openRound the schedule
// pauses while the calibrator samples the quiet machine. The offered
// rate is wall-clock, so the loaded spans are not rescaled: goodput is
// read against the rate the users offered.
func openLoop(ctx context.Context, offsets []time.Duration, maxOutstanding int, cal *calibrator,
	call func(ctx context.Context, j int, due time.Time) mapRecord) ([]mapRecord, []loadedSpan, error) {
	recs := make([]mapRecord, len(offsets))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	var loaded []loadedSpan
	start, due := time.Now(), time.Now()
	for j, off := range offsets {
		if cal.due(openRound) {
			// Pause the schedule: let the calls in flight finish, sample
			// the quiet machine, and resume where the schedule left off.
			pause := time.Now()
			for len(sem) > 0 && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < openBurst; i++ {
				if err := cal.sample(); err != nil {
					wg.Wait()
					return nil, nil, err
				}
			}
			start = start.Add(time.Since(pause))
		}
		last := due
		due = start.Add(off)
		loaded = append(loaded, loadedSpan{start: last, d: due.Sub(last), speed: 1})
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				wg.Wait()
				return nil, nil, ctx.Err()
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return nil, nil, ctx.Err()
		}
		wg.Add(1)
		go func(j int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			recs[j] = call(ctx, j, due)
		}(j, due)
	}
	wg.Wait()
	// The window lasts until the last answer.
	finished := due
	for _, r := range recs {
		if end := r.start.Add(r.lat); end.After(finished) {
			finished = end
		}
	}
	loaded = append(loaded, loadedSpan{start: due, d: finished.Sub(due), speed: 1})
	return recs, loaded, nil
}

// callDue sends one open-loop map due at due, with the latency limit as
// both the context deadline and deadline_ms, and times it from due.
func callDue(ctx context.Context, c *client.Client, in input, idx int, due time.Time) mapRecord {
	sent := time.Now()
	deadline := due.Add(latencyLimit)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	rec := callServer(ctx, c, in, idx, due, max(time.Until(deadline).Milliseconds(), 1))
	rec.late = sent.Sub(due)
	return rec
}

// callServer sends one map and times it from start.
func callServer(ctx context.Context, c *client.Client, in input, idx int, start time.Time, deadlineMS int64) mapRecord {
	resp, err := c.Map(ctx, client.MapRequest{BLIF: in.blif, K: in.k, Engine: in.engine.String(), DeadlineMS: deadlineMS})
	rec := mapRecord{input: idx, start: start, lat: time.Since(start)}
	if err != nil {
		rec.err = failureClass(err)
		return rec
	}
	rec.ok = true
	rec.sum = sha256.Sum256([]byte(resp.BLIF))
	rec.trace = resp.TraceID
	return rec
}

// failureClass names a failed call for the report: the HTTP status of a
// refusal, or the transport/deadline failure.
func failureClass(err error) string {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		return fmt.Sprintf("http-%d", apiErr.Code)
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error: " + err.Error()
}

// serveSpec is one serving workload's traffic.
type serveSpec struct {
	inputs []input
	warm   []input  // sent once each, in order, by every set-up
	args   []string // chortled flags beyond the address
	// drive runs the window, filling s.maps and s.loaded.
	drive func(ctx context.Context, c *client.Client, s *session) error
}

func serveSession(ctx context.Context, cfg config, o sessionOpts, sp serveSpec) (*session, error) {
	s := &session{}
	args := sp.args
	var spans *chortle.SpanCollector
	var accessPath string
	if o.traced {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		accessPath = filepath.Join(cfg.traceDir, "access.jsonl")
		if err := os.Remove(accessPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		args = append(append([]string(nil), args...), "-access-log", accessPath)
		spans = &chortle.SpanCollector{}
	}

	// Set-up: from exec to a healthy /healthz, plus the warm-up pass.
	var (
		srv *server
		c   *client.Client
		tr  *http.Transport
	)
	stop := func() {
		if srv != nil {
			cfg.cal.unwatch(srv.cmd.Process.Pid)
			if err := srv.stop(); err != nil {
				cfg.logf("stopping chortled: %v", err)
			}
			if tr != nil {
				tr.CloseIdleConnections()
			}
			srv = nil
		}
	}
	defer stop()
	for rep := 0; rep < o.setupReps; rep++ {
		stop()
		if err := cfg.cal.sample(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(ctx, cfg.chortled, args); err != nil {
			return nil, err
		}
		cfg.cal.watch(srv.cmd.Process.Pid)
		if c, tr, err = newClient(srv.addr, spans); err != nil {
			return nil, err
		}
		for _, in := range sp.warm {
			if _, err := c.Map(ctx, client.MapRequest{BLIF: in.blif, K: in.k, Engine: in.engine.String()}); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", in.name, err)
			}
		}
		s.setup = append(s.setup, loadedSpan{start: t0, d: time.Since(t0)})
	}

	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	stats0 := c.Stats()
	windowStart := time.Now()
	if err := sp.drive(ctx, c, s); err != nil {
		return nil, err
	}
	stats1 := c.Stats()
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	if s.peakRSSMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	stop() // flushes the access log
	cfg.logf("window %.1fs: %d maps", time.Since(windowStart).Seconds(), len(s.maps))
	s.addLayers(serverCounters(before, after))
	s.addLayers(map[string]metric{
		"client.attempts_per_map": {ratio(float64(stats1.Attempts-stats0.Attempts), float64(stats1.Requests-stats0.Requests)), "ratio"},
	})

	t0 := time.Now()
	if err := checkServed(ctx, cfg, sp.inputs, s); err != nil {
		return nil, err
	}
	cfg.logf("checked %d inputs in %.1fs", len(sp.inputs), time.Since(t0).Seconds())
	if o.traced {
		if err := joinTraces(s, accessPath, spans.Spans(), windowStart); err != nil {
			return nil, err
		}
	}
	s.normalize(cfg.cal)
	return s, nil
}

// newClient returns a client with the default retry policy over at most
// `connections` connections, recording spans when spans is non-nil.
func newClient(addr string, spans *chortle.SpanCollector) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}
	cfg := client.Config{
		Addrs:      []string{"http://" + addr},
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: tr},
	}
	if spans != nil {
		cfg.Spans = spans
	}
	c, err := client.New(cfg)
	return c, tr, err
}

// serverCounters turns two /metrics scrapes bracketing the window into
// the engine and shape-cache layer metrics.
func serverCounters(before, after map[string]float64) map[string]metric {
	d := func(name string) float64 { return after[name] - before[name] }
	maps := d("chortle_maps_total")
	solves, hits := d("chortle_tree_solves_total"), d("chortle_memo_hits_total")
	cacheHits, cacheMisses := d("chortle_shape_cache_hits"), d("chortle_shape_cache_misses")
	return map[string]metric{
		"core.solves":          {ratio(solves, maps), "count"},
		"core.work_units":      {ratio(d("chortle_work_units_total"), maps), "count"},
		"core.memo_hit_rate":   {ratio(hits, hits+solves), "frac"},
		"engine.mb_per_map":    {ratio(d("chortle_run_alloc_bytes_total"), maps) / 1e6, "MB"},
		"shapecache.hit_rate":  {ratio(cacheHits, cacheHits+cacheMisses), "frac"},
		"shapecache.evictions": {d("chortle_shape_cache_evictions"), "count"},
		"shapecache.entries":   {after["chortle_shape_cache_entries"], "count"},
	}
}

// servedRef is an input's in-process reference map.
type servedRef struct {
	sum               [32]byte
	luts              int
	parse, serialize  time.Duration
	outBytes          int
	cutGates          int
	cutsKept          int64
	cutsDominated     int
	verifyErr, mapErr error
}

// checkServed maps every input in process after the window, holds each
// reference to simulation and its golden, and holds every 2xx body to
// its input's reference bytes. The reference runs also time the BLIF
// parse and serialize layers that chortled's spans do not separate.
func checkServed(ctx context.Context, cfg config, inputs []input, s *session) error {
	refs := make([]servedRef, len(inputs))
	err := parallel(len(inputs), func(i int) error {
		in := inputs[i]
		r := &refs[i]
		t0 := time.Now()
		nw, err := chortle.ReadBLIF(strings.NewReader(in.blif))
		r.parse = time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		opts := in.options()
		var col chortle.Collector
		opts.Observer = &col
		res, err := chortle.MapCtx(ctx, nw, opts)
		if err != nil {
			r.mapErr = err
			return nil
		}
		t1 := time.Now()
		var buf bytes.Buffer
		err = res.Circuit.WriteBLIF(&buf)
		r.serialize = time.Since(t1)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		r.sum, r.luts, r.outBytes = sha256.Sum256(buf.Bytes()), res.LUTs, buf.Len()
		rep := col.Report()
		r.cutGates, r.cutsKept, r.cutsDominated = rep.CutGates, rep.CutsKept, rep.CutsDominated
		r.verifyErr = cfg.verdicts.verify(in, r.sum, res.Circuit)
		return nil
	})
	if err != nil {
		return err
	}
	bad := make([]bool, len(inputs))
	for i, r := range refs {
		in := inputs[i]
		switch {
		case r.mapErr != nil:
			s.problem("%s: in-process reference map failed: %v", in.name, r.mapErr)
		case r.verifyErr != nil:
			s.problem("%s: verification failed: %v", in.name, r.verifyErr)
		case in.golden != 0 && r.luts != in.golden:
			s.problem("%s: %d LUTs, golden %d", in.name, r.luts, in.golden)
		default:
			s.lutsTotal += r.luts
			continue
		}
		bad[i] = true
	}
	var parse, ser time.Duration
	var inBytes, outBytes, served int
	var cuts engineCounts
	for j := range s.maps {
		m := &s.maps[j]
		if !m.ok {
			continue
		}
		r := refs[m.input]
		if bad[m.input] || m.sum != r.sum {
			m.wrong = true
			if !bad[m.input] {
				s.problem("%s: served bytes differ from the in-process map", inputs[m.input].name)
			}
			continue
		}
		served++
		parse += r.parse
		ser += r.serialize
		inBytes += len(inputs[m.input].blif)
		outBytes += r.outBytes
		cuts.cutGates += r.cutGates
		cuts.cutsKept += r.cutsKept
		cuts.cutsDominated += r.cutsDominated
	}
	// In reference time, like the span layers.
	speed := cfg.cal.now()
	parse = time.Duration(float64(parse) * speed)
	ser = time.Duration(float64(ser) * speed)
	cutMetrics := cuts.metrics()
	s.addLayers(map[string]metric{
		"blif.parse_ms":      {ratio(durMS(parse), float64(served)), "ms"},
		"blif.parse_mb_s":    {ratio(float64(inBytes)/1e6, parse.Seconds()), "MB/s"},
		"lut.serialize_ms":   {ratio(durMS(ser), float64(served)), "ms"},
		"lut.serialize_mb_s": {ratio(float64(outBytes)/1e6, ser.Seconds()), "MB/s"},
		"cut.cuts_per_gate":  cutMetrics["cut.cuts_per_gate"],
		"cut.dominated_frac": cutMetrics["cut.dominated_frac"],
	})
	return nil
}

// joinTraces stitches each served map's spans — the benchmark's own
// request span, the client's attempt spans, chortled's request spans
// from the access log — into one tree and attributes it to layers. It
// also counts chortled's refusals inside the window.
func joinTraces(s *session, accessPath string, clientSpans []chortle.Span, windowStart time.Time) error {
	f, err := os.Open(accessPath)
	if err != nil {
		return err
	}
	defer f.Close()
	server := map[chortle.TraceID][]chortle.Span{}
	var records, refused int
	byReason := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	for sc.Scan() {
		var rec chortle.AccessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("parsing %s: %w", accessPath, err)
		}
		if rec.Time.Before(windowStart) {
			continue
		}
		records++
		if rec.Decision != "" {
			refused++
			byReason[rec.Decision]++
		}
		server[rec.Trace] = append(server[rec.Trace], rec.Spans...)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", accessPath, err)
	}
	s.addLayers(map[string]metric{
		"srv.refused_frac":             {ratio(float64(refused), float64(records)), "frac"},
		"srv.refused.queue-full":       {float64(byReason["queue-full"]), "count"},
		"srv.refused.codel":            {float64(byReason["codel"]), "count"},
		"srv.refused.deadline-expired": {float64(byReason["deadline-expired"]), "count"},
	})

	client := map[chortle.TraceID][]chortle.Span{}
	for _, sp := range clientSpans {
		client[sp.Trace] = append(client[sp.Trace], sp)
	}
	for _, m := range s.maps {
		if !m.served() {
			continue
		}
		var tid chortle.TraceID
		if err := tid.UnmarshalText([]byte(m.trace)); err != nil {
			return fmt.Errorf("response trace ID: %w", err)
		}
		root := chortle.Span{Trace: tid, ID: chortle.NewSpanID(), Process: "bench", Name: "request",
			Start: m.start, End: m.start.Add(m.lat)}
		spans := []chortle.Span{root}
		for _, sp := range client[tid] {
			if sp.Parent.IsZero() {
				sp.Parent = root.ID
			}
			spans = append(spans, sp)
		}
		spans = append(spans, server[tid]...)
		s.addTrace(m.start, spans, 0, 0)
	}
	return nil
}

// server is a running chortled child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stdout hits EOF
	stderr  bytes.Buffer  // read only after Wait
	http    *http.Client
}

func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	if bin == "" {
		return nil, errors.New("the serving workloads need -chortled")
	}
	s := &server{drained: make(chan struct{}), http: &http.Client{Timeout: 10 * time.Second}}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even on a crash.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting chortled: %w", err)
	}
	first := make(chan string, 1)
	go func() {
		defer close(s.drained)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, br)
	}()
	fail := func(err error) (*server, error) {
		_ = s.cmd.Process.Kill()
		<-s.drained
		_ = s.cmd.Wait()
		return nil, fmt.Errorf("%w (chortled stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
	}
	var line string
	select {
	case line = <-first:
	case <-time.After(30 * time.Second):
		return fail(errors.New("chortled did not report its address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
	if !ok {
		return fail(fmt.Errorf("unexpected chortled output %q", line))
	}
	s.addr = addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := s.http.Get("http://" + addr + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("chortled never became healthy"))
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("%w (stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
	}
	return nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping chortled: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping chortled: %w", err)
	}
	return out, nil
}
