package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace_event export: converts a mapping event stream into the
// JSON array format that chrome://tracing and Perfetto load, so a slow
// run can be inspected visually. The pipeline's map bracket and phases
// become nested B/E spans on a "pipeline" track; per-tree DP solves
// (which carry wall durations and overlap under the parallel pipeline)
// are laid out on as many "solver lane" tracks as their true
// concurrency requires — lane count is a lower bound on the worker
// parallelism the run achieved. Memo hits, budget trips, degradations
// and accepted duplications appear as instant markers; per-LUT detail
// is deliberately omitted (a large run emits tens of thousands of LUT
// events, which would drown the viewer).

// ReadJSONL parses a JSONL trace (the cmd/chortle -trace format, one
// Event per line) back into events. Blank lines are skipped; a
// malformed line fails with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", n, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}

// traceRecord is one Chrome trace_event entry.
type traceRecord struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`            // microseconds from trace origin
	Dur  int64          `json:"dur,omitempty"` // "X" (complete) records only
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// span is an internal paired interval before record emission.
type span struct {
	name       string
	start, end time.Time
	tid        int
	args       map[string]any
}

const (
	tracePid    = 1
	pipelineTid = 0
	laneTid0    = 1 // first solver lane
)

// WriteChromeTrace converts an event stream (a Collector's Events or a
// ReadJSONL replay) into a Chrome trace_event JSON array. The stream
// may be worker-interleaved; it is sorted by timestamp first. Events
// without wall-clock times (hand-built streams) are dropped from span
// output rather than guessed at.
func WriteChromeTrace(w io.Writer, events []Event) error {
	evs := make([]Event, 0, len(events))
	for _, e := range events {
		if !e.Time.IsZero() {
			evs = append(evs, e)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })

	var (
		mainSpans  []span // map bracket + phases: the pipeline track
		solveSpans []span // per-tree DP solves: solver lanes
		instants   []traceRecord
		counters   []traceRecord
		origin     time.Time
		last       time.Time
	)
	if len(evs) > 0 {
		origin = evs[0].Time
		last = evs[len(evs)-1].Time
	}
	us := func(t time.Time) int64 { return t.Sub(origin).Microseconds() }

	instant := func(e Event, name string, args map[string]any) {
		instants = append(instants, traceRecord{
			Name: name, Cat: "mark", Ph: "i", Ts: us(e.Time),
			Pid: tracePid, Tid: pipelineTid, S: "t", Args: args,
		})
	}

	var mapStack []Event
	phaseStacks := map[string][]time.Time{}
	for _, e := range evs {
		switch e.Kind {
		case KindMapStart:
			mapStack = append(mapStack, e)
		case KindMapEnd:
			if n := len(mapStack); n > 0 {
				start := mapStack[n-1]
				mapStack = mapStack[:n-1]
				mainSpans = append(mainSpans, span{
					name: fmt.Sprintf("map K=%d", start.K), start: start.Time, end: e.Time, tid: pipelineTid,
					args: map[string]any{"k": start.K, "nodes": start.N, "luts": e.Cost, "depth": e.Depth, "trees": e.N},
				})
			}
		case KindPhaseStart:
			phaseStacks[e.Phase] = append(phaseStacks[e.Phase], e.Time)
		case KindPhaseEnd:
			start := e.Time.Add(-time.Duration(e.Units))
			if st := phaseStacks[e.Phase]; len(st) > 0 {
				start = st[len(st)-1]
				phaseStacks[e.Phase] = st[:len(st)-1]
			}
			mainSpans = append(mainSpans, span{
				name: e.Phase, start: start, end: e.Time, tid: pipelineTid,
				args: map[string]any{"wall_ns": e.Units},
			})
		case KindTreeSolve:
			if e.Dur > 0 {
				solveSpans = append(solveSpans, span{
					name: e.Tree, start: e.Time.Add(-e.Dur), end: e.Time,
					args: map[string]any{"work_units": e.Units, "cost": e.Cost},
				})
			} else {
				instant(e, "solve "+e.Tree, map[string]any{"work_units": e.Units, "cost": e.Cost})
			}
		case KindMemoHit:
			instant(e, "memo-hit "+e.Tree, map[string]any{"cost": e.Cost})
		case KindBudgetExhausted:
			instant(e, "budget-exhausted "+e.Tree, map[string]any{"limit": e.Units})
		case KindTreeDegraded:
			instant(e, "degraded "+e.Tree, map[string]any{"cost": e.Cost})
		case KindDupAccepted:
			instant(e, "dup-accepted "+e.Tree, nil)
		case KindCutsEnumerated:
			instant(e, "cuts-enumerated", map[string]any{"gates": e.N, "cuts": e.Units, "dominated": e.Cost})
		case KindCutListEvict:
			instant(e, "cut-evictions", map[string]any{"evicted": e.Units})
		case KindAreaFlowRound:
			instant(e, fmt.Sprintf("area-flow round %d", e.N), map[string]any{"cover": e.Cost})
		case KindArenaStats:
			counters = append(counters, traceRecord{
				Name: "arena bytes", Ph: "C", Ts: us(e.Time), Pid: tracePid, Tid: pipelineTid,
				Args: map[string]any{"bytes": e.Units},
			})
		}
	}
	// Unclosed brackets (a cancelled or still-running trace): close at
	// the stream's horizon so the partial work stays visible.
	for _, start := range mapStack {
		mainSpans = append(mainSpans, span{
			name:  fmt.Sprintf("map K=%d (unfinished)", start.K),
			start: start.Time, end: last, tid: pipelineTid,
		})
	}
	for phase, st := range phaseStacks {
		for _, s := range st {
			mainSpans = append(mainSpans, span{name: phase + " (unfinished)", start: s, end: last, tid: pipelineTid})
		}
	}

	lanes := assignLanes(solveSpans)

	records := make([]traceRecord, 0, 2*(len(mainSpans)+len(solveSpans))+len(instants)+len(counters)+lanes+2)
	records = append(records, traceRecord{
		Name: "process_name", Ph: "M", Pid: tracePid, Tid: pipelineTid,
		Args: map[string]any{"name": "chortle"},
	})
	records = append(records, traceRecord{
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: pipelineTid,
		Args: map[string]any{"name": "pipeline"},
	})
	for l := 0; l < lanes; l++ {
		records = append(records, traceRecord{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: laneTid0 + l,
			Args: map[string]any{"name": fmt.Sprintf("solver lane %d", l)},
		})
	}

	// B/E records must arrive in an order where every E closes the most
	// recent open B on its track — a stack discipline per (pid, tid).
	// Emit each track with a nesting sweep: spans sorted by start (ties:
	// longest first, so an outer span opens before an inner one sharing
	// its start microsecond), a stack of open spans, closing every open
	// span whose end precedes the next start. Zero-length spans (a solve
	// under 1µs) come out as adjacent B/E pairs, which a timestamp sort
	// of independent records cannot guarantee.
	byTid := map[int][]span{}
	var tids []int
	for _, s := range append(append([]span(nil), mainSpans...), solveSpans...) {
		if _, seen := byTid[s.tid]; !seen {
			tids = append(tids, s.tid)
		}
		byTid[s.tid] = append(byTid[s.tid], s)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		spans := byTid[tid]
		sort.SliceStable(spans, func(i, j int) bool {
			if !spans[i].start.Equal(spans[j].start) {
				return spans[i].start.Before(spans[j].start)
			}
			return spans[i].end.After(spans[j].end) // outer first
		})
		var stack []span
		var lastTs int64
		emit := func(name string, ph string, at time.Time, args map[string]any) {
			ts := us(at)
			if ts < lastTs { // malformed input (crossing spans): keep the track monotonic
				ts = lastTs
			}
			lastTs = ts
			records = append(records, traceRecord{
				Name: name, Cat: "span", Ph: ph, Ts: ts, Pid: tracePid, Tid: tid, Args: args,
			})
		}
		for _, s := range spans {
			for len(stack) > 0 && !stack[len(stack)-1].end.After(s.start) {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				emit(top.name, "E", top.end, nil)
			}
			emit(s.name, "B", s.start, s.args)
			stack = append(stack, s)
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			emit(top.name, "E", top.end, nil)
		}
	}
	records = append(records, instants...)
	records = append(records, counters...)

	enc := json.NewEncoder(w)
	return enc.Encode(records)
}

// assignLanes lays overlapping solve spans out on the fewest tracks
// where no two spans on one track overlap — a greedy interval
// partition. Returns the lane count; each span's tid is set in place.
func assignLanes(spans []span) int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return spans[order[a]].start.Before(spans[order[b]].start)
	})
	var laneEnds []time.Time
	for _, i := range order {
		s := &spans[i]
		placed := false
		for l, end := range laneEnds {
			if !s.start.Before(end) { // lane free: previous span ended by our start
				s.tid = laneTid0 + l
				laneEnds[l] = s.end
				placed = true
				break
			}
		}
		if !placed {
			s.tid = laneTid0 + len(laneEnds)
			laneEnds = append(laneEnds, s.end)
		}
	}
	return len(laneEnds)
}
