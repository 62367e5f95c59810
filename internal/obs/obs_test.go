package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindRoundTrip(t *testing.T) {
	for k := KindMapStart; k <= KindDupAccepted; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		if !strings.Contains(string(data), k.String()) {
			t.Errorf("kind %v marshaled to %s", k, data)
		}
		var back Kind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %v", k, back)
		}
	}
	var bad Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &bad); err == nil {
		t.Error("unknown kind name unmarshaled without error")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Observe(Event{Kind: KindTreeSolve, Units: 1})
			}
		}()
	}
	wg.Wait()
	if got := c.Len(); got != workers*per {
		t.Fatalf("collected %d events, want %d", got, workers*per)
	}
	r := c.Report()
	if r.Solves != workers*per || r.WorkUnits != workers*per {
		t.Fatalf("report solves=%d units=%d, want %d", r.Solves, r.WorkUnits, workers*per)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Observe(Event{Kind: KindMapStart, K: 4, N: 10})
	j.Observe(Event{Kind: KindTreeSolve, Tree: "n1", Units: 42, Cost: 3})
	j.Observe(Event{Kind: KindMapEnd, Cost: 7, Depth: 2, N: 3})
	if err := j.Err(); err != nil {
		t.Fatalf("write error: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
	}
	if lines != 3 {
		t.Fatalf("wrote %d lines, want 3", lines)
	}
}

type failWriter struct {
	n     int // successful writes remaining
	calls int // total Write calls observed
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.n <= 0 {
		return 0, errWrite
	}
	f.n--
	return len(p), nil
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "disk full" }

// TestJSONLStickyError pins the sink's failure contract: the first
// write error is sticky in Err, identity-preserved for errors.Is-style
// checks, and the sink goes quiet — the broken writer is never touched
// again, so a full disk cannot slow the rest of the run.
func TestJSONLStickyError(t *testing.T) {
	fw := &failWriter{n: 1}
	j := NewJSONL(fw)
	j.Observe(Event{Kind: KindMapStart})
	if err := j.Err(); err != nil {
		t.Fatalf("first write failed unexpectedly: %v", err)
	}
	j.Observe(Event{Kind: KindMapEnd}) // fails
	callsAtFailure := fw.calls
	j.Observe(Event{Kind: KindMapEnd}) // silently dropped
	j.Observe(Event{Kind: KindTreeSolve, Tree: "a"})
	if err := j.Err(); err != errWrite {
		t.Fatalf("Err() = %v, want the writer's own error", err)
	}
	if fw.calls != callsAtFailure {
		t.Fatalf("sink touched the writer %d more times after the error", fw.calls-callsAtFailure)
	}
}

func TestMultiAndFunc(t *testing.T) {
	var got []Kind
	f := Func(func(e Event) { got = append(got, e.Kind) })
	var c Collector
	m := Multi{f, nil, &c}
	m.Observe(Event{Kind: KindMapStart})
	m.Observe(Event{Kind: KindMapEnd})
	if len(got) != 2 || c.Len() != 2 {
		t.Fatalf("fan-out reached func %d times, collector %d times", len(got), c.Len())
	}
}

func TestAggregate(t *testing.T) {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	events := []Event{
		{Kind: KindMapStart, Time: t0, K: 4, N: 100},
		{Kind: KindPhaseEnd, Phase: "forest", Units: int64(2 * time.Millisecond)},
		{Kind: KindPhaseEnd, Phase: "solve", Units: int64(5 * time.Millisecond)},
		{Kind: KindPhaseEnd, Phase: "solve", Units: int64(3 * time.Millisecond)},
		{Kind: KindTreeSolve, Tree: "a", Units: 10, Cost: 2},
		{Kind: KindTreeSolve, Tree: "b", Units: 30, Cost: 2},
		{Kind: KindMemoHit, Tree: "c", Cost: 2},
		{Kind: KindBudgetExhausted, Tree: "d", Units: 100},
		{Kind: KindTreeDegraded, Tree: "d", Cost: 5},
		{Kind: KindLUT, Tree: "a$l1", N: 4, Depth: 1},
		{Kind: KindLUT, Tree: "a$l2", N: 3, Depth: 2},
		{Kind: KindArenaStats, N: 2, Units: 4096},
		{Kind: KindDupAccepted, Tree: "g"},
		{Kind: KindMapEnd, Time: t0.Add(10 * time.Millisecond), Cost: 9, Depth: 2, N: 4},
	}
	r := Aggregate(events)
	if r.K != 4 || r.LUTs != 9 || r.Depth != 2 || r.Trees != 4 {
		t.Fatalf("totals wrong: %+v", r)
	}
	if r.Wall != 10*time.Millisecond {
		t.Errorf("wall = %s, want 10ms", r.Wall)
	}
	if len(r.Phases) != 2 || r.Phases[1].Name != "solve" ||
		r.Phases[1].Wall != 8*time.Millisecond || r.Phases[1].Count != 2 {
		t.Errorf("phase aggregation wrong: %+v", r.Phases)
	}
	if r.Solves != 2 || r.WorkUnits != 40 {
		t.Errorf("solves=%d units=%d", r.Solves, r.WorkUnits)
	}
	if r.MemoHits != 1 {
		t.Errorf("memo hits=%d", r.MemoHits)
	}
	if want := 1.0 / 3; r.MemoHitRate() != want {
		t.Errorf("hit rate %f, want %f", r.MemoHitRate(), want)
	}
	if r.BudgetTrips != 1 || len(r.Degraded) != 1 || r.Degraded[0] != "d" {
		t.Errorf("budget detail wrong: trips=%d degraded=%v", r.BudgetTrips, r.Degraded)
	}
	if r.TreeCostHist[2] != 3 || r.TreeCostHist[5] != 1 {
		t.Errorf("tree cost hist %v", r.TreeCostHist)
	}
	if r.LUTInputHist[4] != 1 || r.LUTDepthHist[2] != 1 {
		t.Errorf("LUT hists %v %v", r.LUTInputHist, r.LUTDepthHist)
	}
	if r.ArenaCount != 2 || r.ArenaBytes != 4096 || r.DupAccepted != 1 {
		t.Errorf("arena/dup wrong: %+v", r)
	}

	text := r.Format()
	for _, want := range []string{"9 LUTs (K=4)", "forest", "solve", "memo hits", "degraded", "tree costs"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

func TestMemoHitRateEmpty(t *testing.T) {
	if r := Aggregate(nil); r.MemoHitRate() != 0 {
		t.Fatal("empty report should have zero hit rate")
	}
}

// TestSolvePercentiles checks the p50/p95/p99 aggregation over timed
// solves: 100 solves with durations 1ms..100ms give exact
// nearest-rank percentiles, and Format surfaces them.
func TestSolvePercentiles(t *testing.T) {
	var events []Event
	// Shuffle-ish order: percentiles must not depend on arrival order.
	for i := 99; i >= 0; i-- {
		events = append(events, Event{
			Kind: KindTreeSolve, Tree: "t", Units: 1,
			Dur: time.Duration(i+1) * time.Millisecond,
		})
	}
	r := Aggregate(events)
	if r.TimedSolves != 100 {
		t.Fatalf("timed solves = %d, want 100", r.TimedSolves)
	}
	if r.SolveP50 != 50*time.Millisecond {
		t.Errorf("p50 = %s, want 50ms", r.SolveP50)
	}
	if r.SolveP95 != 95*time.Millisecond {
		t.Errorf("p95 = %s, want 95ms", r.SolveP95)
	}
	if r.SolveP99 != 99*time.Millisecond {
		t.Errorf("p99 = %s, want 99ms", r.SolveP99)
	}
	if text := r.Format(); !strings.Contains(text, "solve times: p50 50ms, p95 95ms, p99 99ms (100 timed)") {
		t.Errorf("Format() missing percentile line:\n%s", text)
	}

	// Untimed solves (Dur zero, e.g. replayed from an old trace) leave
	// the percentiles zero and the line out of Format.
	r = Aggregate([]Event{{Kind: KindTreeSolve, Tree: "t"}})
	if r.TimedSolves != 0 || r.SolveP50 != 0 {
		t.Errorf("untimed solves produced percentiles: %+v", r)
	}
	if strings.Contains(r.Format(), "solve times") {
		t.Error("Format() printed percentiles with no timed solves")
	}
	// Single observation: every percentile is that observation.
	r = Aggregate([]Event{{Kind: KindTreeSolve, Dur: 7 * time.Millisecond}})
	if r.SolveP50 != 7*time.Millisecond || r.SolveP99 != 7*time.Millisecond {
		t.Errorf("single-solve percentiles wrong: %+v", r)
	}
}

// TestBoundedCollector exercises the ring: only the newest cap events
// survive, in order, with the eviction count reported.
func TestBoundedCollector(t *testing.T) {
	c := NewBoundedCollector(4)
	for i := 0; i < 10; i++ {
		c.Observe(Event{Kind: KindTreeSolve, Units: int64(i)})
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if c.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", c.Dropped())
	}
	got := c.Events()
	for i, e := range got {
		if want := int64(6 + i); e.Units != want {
			t.Fatalf("event %d has units %d, want %d (events %v)", i, e.Units, want, got)
		}
	}
	c.Reset()
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Fatal("Reset did not clear the ring")
	}
	// The bound survives a Reset.
	for i := 0; i < 5; i++ {
		c.Observe(Event{Units: int64(i)})
	}
	if c.Len() != 4 || c.Dropped() != 1 {
		t.Fatalf("after reset: len=%d dropped=%d, want 4/1", c.Len(), c.Dropped())
	}
}

// TestBoundedCollectorSetCapacity covers late bounding: shrinking an
// over-full collector drops the oldest events immediately.
func TestBoundedCollectorSetCapacity(t *testing.T) {
	var c Collector
	for i := 0; i < 8; i++ {
		c.Observe(Event{Units: int64(i)})
	}
	c.SetCapacity(3)
	if c.Len() != 3 || c.Dropped() != 5 {
		t.Fatalf("after shrink: len=%d dropped=%d, want 3/5", c.Len(), c.Dropped())
	}
	got := c.Events()
	if got[0].Units != 5 || got[2].Units != 7 {
		t.Fatalf("shrink kept wrong events: %v", got)
	}
	c.Observe(Event{Units: 8})
	got = c.Events()
	if len(got) != 3 || got[0].Units != 6 || got[2].Units != 8 {
		t.Fatalf("ring after shrink misbehaved: %v", got)
	}
	// Unbounding stops eviction.
	c.SetCapacity(0)
	for i := 9; i < 20; i++ {
		c.Observe(Event{Units: int64(i)})
	}
	if c.Len() != 14 {
		t.Fatalf("unbounded len = %d, want 14", c.Len())
	}
}

// TestBoundedCollectorConcurrent is the race check for the ring path.
func TestBoundedCollectorConcurrent(t *testing.T) {
	c := NewBoundedCollector(64)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Observe(Event{Kind: KindTreeSolve, Units: 1})
			}
		}()
	}
	wg.Wait()
	if c.Len() != 64 {
		t.Fatalf("len = %d, want 64", c.Len())
	}
	if got := c.Dropped(); got != workers*per-64 {
		t.Fatalf("dropped = %d, want %d", got, workers*per-64)
	}
}
