package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"chortle/client"
)

// TestOpenLoopTimesFromDueTime drives the open loop against a server
// whose first answer stalls. With one connection and one call in
// flight, every later call is sent late; each must be timed from its due
// time, so the stall shows in its latency, and its lateness recorded.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(client.MapResponse{BLIF: ".model m\n.end\n"})
	}))
	defer ts.Close()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c, err := client.New(client.Config{Addrs: []string{ts.URL}, HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}

	offsets := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	in := input{name: "m", k: 4, blif: ".model m\n.end\n"}
	recs, loaded, err := openLoop(context.Background(), offsets, 1, nil, func(ctx context.Context, j int, due time.Time) mapRecord {
		return callDue(ctx, c, in, j, due)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(offsets) {
		t.Fatalf("%d records, want %d", len(recs), len(offsets))
	}
	start := recs[0].start
	for j, r := range recs {
		if !r.ok {
			t.Fatalf("call %d failed: %s", j, r.err)
		}
		if got := r.start.Sub(start); got != offsets[j] {
			t.Errorf("call %d timed from %v after the first, want its due offset %v", j, got, offsets[j])
		}
		if r.lat < r.late {
			t.Errorf("call %d: latency %v below its lateness %v: not timed from the due time", j, r.lat, r.late)
		}
		// Every call completes after the stalled first one.
		if floor := stall - offsets[j]; r.lat < floor {
			t.Errorf("call %d: latency %v, want at least %v", j, r.lat, floor)
		}
		if j > 0 && r.late < stall-offsets[j]-10*time.Millisecond {
			t.Errorf("call %d: lateness %v, want about %v", j, r.late, stall-offsets[j])
		}
	}
	if recs[0].late > 10*time.Millisecond {
		t.Errorf("first call sent %v late", recs[0].late)
	}

	// The lateness reaches the report.
	// The window runs until the last answer, after the stall.
	var window time.Duration
	for _, sp := range loaded {
		window += sp.d
	}
	if window < stall {
		t.Errorf("loaded time %v, want at least the %v stall", window, stall)
	}
	s := &session{maps: recs, openLoop: true, loaded: loaded}
	late := layerMetrics(&session{openLoop: true}, s)["load.late_ms_p99"].Value
	if late < durMS(stall-offsets[1]-10*time.Millisecond) {
		t.Errorf("load.late_ms_p99 = %.1f ms, want the generator's lateness", late)
	}
}

func TestMain(m *testing.M) {
	// The calibrator re-runs this binary as its child.
	if len(os.Args) > 1 && os.Args[1] == calibrateCommand {
		os.Exit(calibrateMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}
