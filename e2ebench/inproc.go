package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	rm "runtime/metrics"
	"strings"
	"time"

	"chortle"
)

// The in-process workloads time the public layer functions a library
// user calls — chortle.ReadBLIF, chortle.MapCtx, (*Circuit).WriteBLIF —
// in a closed loop with one caller, visiting every input once per pass
// in a seed-shuffled order.

// maxTraceEvents bounds a traced map's event collector far above the
// largest map's event count, so no engine phase event is ever evicted.
const maxTraceEvents = 1 << 20

func runPaperTree(ctx context.Context, cfg config, opts []sessionOpts) ([]*session, error) {
	inputs, err := suiteInputs(cfg.goldenDir, chortle.SuiteNames(), []int{2, 3, 4, 5}, chortle.EngineTree)
	if err != nil {
		return nil, err
	}
	return runSessions(opts, func(o sessionOpts) (*session, error) {
		s, err := runInproc(ctx, cfg, o, inputs)
		if err == nil && o.traced {
			err = warmSpeedups(ctx, inputs, s)
		}
		return s, err
	})
}

func runDAGCut(ctx context.Context, cfg config, opts []sessionOpts) ([]*session, error) {
	circuits := append(chortle.SuiteNames(), chortle.ExtendedSuiteNames()...)
	inputs, err := suiteInputs(cfg.goldenDir, circuits, []int{4, 5, 6}, chortle.EngineCut)
	if err != nil {
		return nil, err
	}
	return runSessions(opts, func(o sessionOpts) (*session, error) {
		return runInproc(ctx, cfg, o, inputs)
	})
}

func runSessions(opts []sessionOpts, run func(sessionOpts) (*session, error)) ([]*session, error) {
	var out []*session
	for _, o := range opts {
		s, err := run(o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// reference is an input's first output: later maps must repeat it.
type reference struct {
	sum  [32]byte
	luts int
	ckt  *chortle.Circuit
}

func runInproc(ctx context.Context, cfg config, o sessionOpts, inputs []input) (*session, error) {
	s := &session{}
	rng := rand.New(rand.NewSource(cfg.seed))
	refs := make([]reference, len(inputs))

	// Set-up: warm-up passes over every input. The first fixes each
	// input's reference output; set-up time is the parse, map and
	// serialize time of a pass.
	for rep := 0; rep < o.setupReps; rep++ {
		if err := cfg.cal.sample(); err != nil {
			return nil, err
		}
		setupStart := time.Now()
		var spent time.Duration
		for _, i := range rng.Perm(len(inputs)) {
			t0 := time.Now()
			out, res, _, err := mapBytes(ctx, inputs[i], nil, nil)
			spent += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("set-up: %s: %w", inputs[i].name, err)
			}
			sum := sha256.Sum256(out)
			if rep == 0 {
				refs[i] = reference{sum: sum, luts: res.LUTs, ckt: res.Circuit}
			} else if sum != refs[i].sum {
				s.problem("%s: set-up pass %d output differs from pass 1", inputs[i].name, rep+1)
			}
		}
		s.setup = append(s.setup, loadedSpan{start: setupStart, d: spent})
	}

	var meter *allocMeter
	if o.meterAllocs {
		meter = newAllocMeter()
	}
	var counts engineCounts
	start := time.Now()
	end := start.Add(o.window)
	for time.Now().Before(end) && ctx.Err() == nil {
		for _, i := range rng.Perm(len(inputs)) {
			if !time.Now().Before(end) {
				break
			}
			in := inputs[i]
			t0 := time.Now()
			var rt *chortle.ReqTrace
			if o.traced {
				rt = chortle.NewReqTrace("bench", "request", chortle.TraceID{}, chortle.SpanID{}, 8, maxTraceEvents)
			}
			out, _, mapSpan, err := mapBytes(ctx, in, rt, meter)
			rec := mapRecord{input: i, start: t0, lat: time.Since(t0)}
			if err != nil {
				rec.err = err.Error()
			} else {
				rec.ok = true
				rec.sum = sha256.Sum256(out)
			}
			s.maps = append(s.maps, rec)
			s.loaded = append(s.loaded, loadedSpan{start: t0, d: rec.lat})
			if rt != nil && err == nil {
				spans := rt.Finish(mapSpan)
				s.addTrace(t0, spans, len(in.blif), len(out))
				counts.add(chortle.AggregateEvents(rt.Events()))
			}
			if err := cfg.cal.sampleIfDue(); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var err error
	if s.peakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	s.normalize(cfg.cal)
	cfg.logf("window %.1fs: %d maps", time.Since(start).Seconds(), len(s.maps))
	t0 := time.Now()

	// Correctness, outside the window: every repetition repeats its
	// input's reference bytes, and each reference passes simulation and
	// its golden LUT count.
	bad := make([]bool, len(inputs))
	verified := make([]error, len(inputs))
	if err := parallel(len(inputs), func(i int) error {
		verified[i] = cfg.verdicts.verify(inputs[i], refs[i].sum, refs[i].ckt)
		return nil
	}); err != nil {
		return nil, err
	}
	for i, in := range inputs {
		if err := verified[i]; err != nil {
			bad[i] = true
			s.problem("%s: verification failed: %v", in.name, err)
		}
		if refs[i].luts != in.golden {
			bad[i] = true
			s.problem("%s: %d LUTs, golden %d", in.name, refs[i].luts, in.golden)
		}
		s.lutsTotal += refs[i].luts
	}
	for j := range s.maps {
		m := &s.maps[j]
		if !m.ok {
			continue
		}
		if m.sum != refs[m.input].sum {
			m.wrong = true
			s.problem("%s: repetition output differs from the first map", inputs[m.input].name)
		}
		if bad[m.input] {
			m.wrong = true
		}
	}
	cfg.logf("checked %d inputs in %.1fs", len(inputs), time.Since(t0).Seconds())
	if o.traced {
		s.addLayers(counts.metrics())
	}
	if meter != nil {
		s.addLayers(meter.metrics())
	}
	return s, nil
}

// mapBytes is one map as a user performs it: BLIF bytes in, LUT BLIF
// bytes out. A non-nil rt records a span per layer call, with the
// engine's phases joined under the map span (returned for Finish); a
// non-nil meter counts the parse's and the map's allocations.
func mapBytes(ctx context.Context, in input, rt *chortle.ReqTrace, meter *allocMeter) ([]byte, *chortle.Result, chortle.SpanID, error) {
	sp := rt.Start("blif.parse")
	meter.begin()
	nw, err := chortle.ReadBLIF(strings.NewReader(in.blif))
	meter.end(false)
	sp.End()
	if err != nil {
		return nil, nil, chortle.SpanID{}, fmt.Errorf("parsing: %w", err)
	}

	opts := in.options()
	opts.Observer = rt.Observer()
	mp := rt.Start("map")
	meter.begin()
	res, err := chortle.MapCtx(ctx, nw, opts)
	meter.end(true)
	mp.End()
	if err != nil {
		return nil, nil, mp.ID(), fmt.Errorf("mapping: %w", err)
	}

	ss := rt.Start("lut.serialize")
	var buf bytes.Buffer
	err = res.Circuit.WriteBLIF(&buf)
	ss.End()
	if err != nil {
		return nil, nil, mp.ID(), fmt.Errorf("serializing: %w", err)
	}
	return buf.Bytes(), res, mp.ID(), nil
}

// addTrace attributes one traced map's spans to layers, keeping the
// first few span sets for trace.json.
func (s *session) addTrace(start time.Time, spans []chortle.Span, inBytes, outBytes int) {
	total, trimmed, layers := breakdown(spans)
	t := mapTrace{start: start, total: total, spans: len(spans), trimmed: trimmed, layers: layers, inBytes: inBytes, outBytes: outBytes}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "engine:") {
			t.hasEngine = true
			break
		}
	}
	s.traces = append(s.traces, t)
	if len(s.spans) < traceFileMaps {
		s.spans = append(s.spans, spans)
	}
}

// engineCounts sums the engine's own counters over a session's maps.
type engineCounts struct {
	maps                    int
	solves, memoHits        int
	workUnits               int64
	cutGates, cutsDominated int
	cutsKept                int64
}

func (c *engineCounts) add(r *chortle.MapReport) {
	c.maps++
	c.solves += r.Solves
	c.memoHits += r.MemoHits
	c.workUnits += r.WorkUnits
	c.cutGates += r.CutGates
	c.cutsKept += r.CutsKept
	c.cutsDominated += r.CutsDominated
}

func (c engineCounts) metrics() map[string]metric {
	out := map[string]metric{
		"core.solves":        {ratio(float64(c.solves), float64(c.maps)), "count"},
		"core.work_units":    {ratio(float64(c.workUnits), float64(c.maps)), "count"},
		"core.memo_hit_rate": {ratio(float64(c.memoHits), float64(c.memoHits+c.solves)), "frac"},
		"cut.cuts_per_gate":  {ratio(float64(c.cutsKept), float64(c.cutGates)), "ratio"},
		"cut.dominated_frac": {ratio(float64(c.cutsDominated), float64(c.cutsDominated)+float64(c.cutsKept)), "frac"},
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocMeter counts heap allocations of the parse and map calls from
// runtime/metrics, which reads without stopping the world. Its methods
// are no-ops on a nil meter.
type allocMeter struct {
	samples        []rm.Sample
	objs, bytes    uint64
	parse, mapping allocCount
}

type allocCount struct {
	calls, objs, bytes uint64
}

func newAllocMeter() *allocMeter {
	return &allocMeter{samples: []rm.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (m *allocMeter) read() (objs, bytes uint64) {
	rm.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64()
}

func (m *allocMeter) begin() {
	if m != nil {
		m.objs, m.bytes = m.read()
	}
}

// end charges the allocations since begin to the map call, or to the
// parse when mapping is false.
func (m *allocMeter) end(mapping bool) {
	if m == nil {
		return
	}
	into := &m.parse
	if mapping {
		into = &m.mapping
	}
	objs, bytes := m.read()
	into.calls++
	into.objs += objs - m.objs
	into.bytes += bytes - m.bytes
}

func (m *allocMeter) metrics() map[string]metric {
	p, q := m.parse, m.mapping
	return map[string]metric{
		"blif.parse_allocs":     {ratio(float64(p.objs), float64(p.calls)), "count"},
		"engine.allocs_per_map": {ratio(float64(q.objs), float64(q.calls)), "count"},
		"engine.mb_per_map":     {ratio(float64(q.bytes), float64(q.calls)) / 1e6, "MB"},
	}
}

// warmSpeedups measures the shared shape cache per input: the median
// map time through a fresh cache (cold) over the median through a cache
// already holding the input's shapes (warm). Inputs where warm is slower
// than cold show as speedups below 1.
func warmSpeedups(ctx context.Context, inputs []input, s *session) error {
	const reps = 3
	var speedups []float64
	timed := func(nw *chortle.Network, opts chortle.Options) (float64, error) {
		t0 := time.Now()
		_, err := chortle.MapCtx(ctx, nw, opts)
		return time.Since(t0).Seconds(), err
	}
	for _, in := range inputs {
		nw, err := chortle.ReadBLIF(strings.NewReader(in.blif))
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		opts := in.options()
		var cold, warm []float64
		for r := 0; r < reps; r++ {
			opts.SharedCache = chortle.NewSharedCache(chortle.SharedCacheConfig{})
			d, err := timed(nw, opts)
			if err != nil {
				return fmt.Errorf("%s cold: %w", in.name, err)
			}
			cold = append(cold, d)
		}
		opts.SharedCache = chortle.NewSharedCache(chortle.SharedCacheConfig{})
		if _, err := timed(nw, opts); err != nil {
			return fmt.Errorf("%s warm-up: %w", in.name, err)
		}
		for r := 0; r < reps; r++ {
			d, err := timed(nw, opts)
			if err != nil {
				return fmt.Errorf("%s warm: %w", in.name, err)
			}
			warm = append(warm, d)
		}
		speedups = append(speedups, median(cold)/median(warm))
	}
	s.addLayers(map[string]metric{
		"shapecache.warm_speedup_geomean": {geomean(speedups), "ratio"},
		"shapecache.warm_speedup_min":     {sortedCopy(speedups)[0], "ratio"},
	})
	return nil
}
