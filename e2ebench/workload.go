package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"chortle"
)

// latencyLimit is the per-map latency limit behind slo_frac, and the
// deadline serve_fresh sends with every request.
const latencyLimit = 250 * time.Millisecond

// connections is the number of HTTP connections the serving workloads
// may open: the closed-loop client count, and the cap on the open loop.
// It matches the 2-core machine the workloads were sized on.
const connections = 2

// config is what every workload needs from the command line.
type config struct {
	seed      int64
	traceDir  string
	chortled  string // chortled binary, for the serving workloads
	goldenDir string
	verdicts  verdicts
	cal       *calibrator
	log       io.Writer
}

func (c config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, "e2ebench: "+format+"\n", args...)
	}
}

// workload is one named traffic mix. run builds the inputs once and
// then runs one session per sessionOpts.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, opts []sessionOpts) ([]*session, error)
	// mayRefuse marks the open-loop workload, where a refusal or a missed
	// deadline is a measured outcome; elsewhere any failure is a bug.
	mayRefuse bool
}

// sessionOpts shapes one session: a set-up repeated setupReps times
// (the last one stays up) followed by one window.
type sessionOpts struct {
	window    time.Duration
	setupReps int
	traced    bool
	// meterAllocs brackets parse and map with allocation counters; the
	// untraced half of a traced run sets it, so allocation counts never
	// include the tracer's own.
	meterAllocs bool
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json gives the
// reason for each.
var workloads = []workload{
	{name: "paper_tree", run: runPaperTree},
	{name: "dag_cut", run: runDAGCut},
	{name: "serve_repeat", run: runServeRepeat},
	{name: "serve_fresh", run: runServeFresh, mayRefuse: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mapRecord is one attempted map inside a window. Times are raw; speed
// converts them to reference time.
type mapRecord struct {
	input int
	start time.Time     // send time (closed loop) or due time (open loop)
	lat   time.Duration // from start to bytes out
	late  time.Duration // open loop: how late the generator sent it
	speed float64       // machine speed at start (see calibrator)
	ok    bool          // bytes out arrived
	err   string        // failure or refusal; empty when ok
	sum   [32]byte      // SHA-256 of the bytes out, checked after the window
	wrong bool          // the bytes out failed a correctness check
	trace string        // serving: the client's trace ID, to join spans
}

// served reports whether the map delivered correct bytes.
func (m mapRecord) served() bool { return m.ok && !m.wrong }

// mapTrace is one traced map attributed to layers.
type mapTrace struct {
	start     time.Time
	total     time.Duration
	spans     int
	trimmed   int // spans cut to fit their parent or clear a sibling
	layers    map[string]time.Duration
	hasEngine bool // at least one engine:<phase> span survived
	inBytes   int
	outBytes  int
}

// session is what one set-up plus window produced.
type session struct {
	maps []mapRecord
	// loaded spans the time the window kept the system busy, excluding
	// calibration pauses: the divisor of maps_per_s.
	loaded    []loadedSpan
	openLoop  bool
	setup     []loadedSpan // one per set-up repetition
	peakRSSMB float64
	lutsTotal int // LUTs summed over the distinct inputs
	// problems lists every failed correctness check, one line each.
	problems []string
	// Traced sessions: per-map attribution plus layer metrics measured
	// outside the spans (counters, ratios).
	traces []mapTrace
	layers map[string]metric
	// spans holds the raw spans of the first traced maps, for trace.json.
	spans [][]chortle.Span
}

// loadedSpan is a stretch of raw time and the machine speed at its
// start.
type loadedSpan struct {
	start time.Time
	d     time.Duration
	speed float64
}

// normalize stamps every map, loaded span and trace with the machine
// speed at its start; call it once the session's last sample is in.
func (s *session) normalize(cal *calibrator) {
	for i := range s.maps {
		s.maps[i].speed = cal.speed(s.maps[i].start)
	}
	for _, spans := range [][]loadedSpan{s.loaded, s.setup} {
		for i := range spans {
			if spans[i].speed == 0 { // not already paced at a known speed
				spans[i].speed = cal.speed(spans[i].start)
			}
		}
	}
	for i := range s.traces {
		t := &s.traces[i]
		f := cal.speed(t.start)
		t.total = time.Duration(float64(t.total) * f)
		for l, d := range t.layers {
			t.layers[l] = time.Duration(float64(d) * f)
		}
	}
}

// speed is the median machine speed over the session's maps.
func (s *session) speed() float64 {
	var xs []float64
	for _, m := range s.maps {
		xs = append(xs, m.speed)
	}
	return median(xs)
}

func (s *session) problem(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

func (s *session) addLayers(m map[string]metric) {
	if s.layers == nil {
		s.layers = make(map[string]metric, len(m))
	}
	for k, v := range m {
		s.layers[k] = v
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics of an untraced session, in
// reference time, or in raw time when raw is set.
func endToEnd(s *session, raw bool) map[string]metric {
	scale := func(speed float64) float64 {
		if raw {
			return 1
		}
		return speed
	}
	var lat []float64
	byInput := map[int][]float64{}
	served, within := 0, 0
	for _, m := range s.maps {
		if !m.served() {
			continue
		}
		ms := durMS(m.lat) * scale(m.speed)
		lat = append(lat, ms)
		byInput[m.input] = append(byInput[m.input], ms)
		served++
		if ms <= durMS(latencyLimit) {
			within++
		}
	}
	// A closed loop counts every verified map; an open loop only those
	// inside the latency limit (goodput at the offered rate).
	rate := served
	if s.openLoop {
		rate = within
	}
	var medians []float64
	for _, xs := range byInput {
		medians = append(medians, median(xs))
	}
	loaded := 0.0
	for _, sp := range s.loaded {
		loaded += sp.d.Seconds() * scale(sp.speed)
	}
	var setups []float64
	for _, sp := range s.setup {
		setups = append(setups, sp.d.Seconds()*scale(sp.speed))
	}
	sorted := sortedCopy(lat)
	return map[string]metric{
		"lat_ms_p50":     {smoothPercentile(sorted, 0.50), "ms"},
		"lat_ms_p95":     {smoothPercentile(sorted, 0.95), "ms"},
		"lat_geomean_ms": {geomean(medians), "ms"},
		"maps_per_s":     {ratio(float64(rate), loaded), "1/s"},
		"slo_frac":       {ratio(float64(within), float64(len(s.maps))), "frac"},
		"luts_total":     {float64(s.lutsTotal), "count"},
		"peak_rss_mb":    {s.peakRSSMB, "MB"},
		"setup_s":        {median(setups), "s"},
	}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
