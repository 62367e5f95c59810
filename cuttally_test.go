package chortle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The cut engine's enumeration tallies, pinned: for every bundled
// circuit at K=2..6, the gates enumerated over, the cuts kept across
// all priority lists, the candidates dropped as dominated and the cuts
// evicted beyond the list bound, as the run's event stream reports
// them. The BLIF pins only see the selected cover, so a kernel change
// that kept a different list which happened to select the same cuts
// would pass them; it fails here. After an intended change to
// enumeration, regenerate with
//
//	go test -run TestCutTallies -update .

const (
	cutTallySchema = "chortle-cut-tallies/v1"
	cutTallyPath   = "testdata/cut_tallies.json"
)

// cutTally is one (circuit, K) row of the pin.
type cutTally struct {
	Gates     int   `json:"gates"`
	Kept      int64 `json:"kept"`
	Dominated int   `json:"dominated"`
	Evicted   int64 `json:"evicted"`
}

type cutTallyFile struct {
	Schema  string              `json:"schema"`
	Tallies map[string]cutTally `json:"tallies"` // "<circuit>/k<K>"
}

// suiteCutTallies maps every bundled circuit at K=2..6 with the cut
// engine under a Collector and aggregates each run's events.
func suiteCutTallies(t *testing.T) map[string]cutTally {
	t.Helper()
	nets := differentialSuite(t)
	got := make(map[string]cutTally)
	for _, c := range goldenCircuits() {
		for k := 2; k <= 6; k++ {
			var col Collector
			opts := DefaultOptions(k)
			opts.Engine = EngineCut
			opts.Observer = &col
			if _, err := Map(nets[c.Name], opts); err != nil {
				t.Fatalf("%s K=%d: %v", c.Name, k, err)
			}
			r := AggregateEvents(col.Events())
			got[fmt.Sprintf("%s/k%d", c.Name, k)] = cutTally{
				Gates: r.CutGates, Kept: r.CutsKept, Dominated: r.CutsDominated, Evicted: r.CutEvictions,
			}
		}
	}
	return got
}

func TestCutTallies(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the whole bundled suite")
	}
	got := suiteCutTallies(t)
	if *updateGolden {
		data, err := json.MarshalIndent(cutTallyFile{Schema: cutTallySchema, Tallies: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(cutTallyPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(cutTallyPath))
	if err != nil {
		t.Fatalf("no tally pin (run with -update to create): %v", err)
	}
	var want cutTallyFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", cutTallyPath, err)
	}
	if want.Schema != cutTallySchema {
		t.Fatalf("%s has schema %q, this test speaks %q", cutTallyPath, want.Schema, cutTallySchema)
	}
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if w, ok := want.Tallies[key]; !ok {
			t.Errorf("%s: not pinned (rerun with -update)", key)
		} else if got[key] != w {
			t.Errorf("%s: tallies %+v, pinned %+v", key, got[key], w)
		}
	}
	if len(want.Tallies) != len(got) {
		t.Errorf("pin file has %d entries, the suite produces %d", len(want.Tallies), len(got))
	}
}
