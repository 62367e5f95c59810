package chortle

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The tree engine's dedup, pinned: for every bundled circuit at K=4,
// the trees mapped, the DP solves, the trees that reused another tree's
// solve and the work units spent, as the run's event stream reports
// them. The BLIF pins only see the emitted bytes, which a change that
// split one shape into two, or merged two, would leave as they are; it
// fails here. After an intended change to shape identity, regenerate
// with
//
//	go test -run TestShapeTallies -update .

const (
	shapeTallySchema = "chortle-shape-tallies/v1"
	shapeTallyPath   = "testdata/shape_tallies.json"
)

// shapeTally is one circuit's row of the pin.
type shapeTally struct {
	Trees     int   `json:"trees"`
	Solves    int   `json:"solves"`
	MemoHits  int   `json:"memo_hits"`
	WorkUnits int64 `json:"work_units"`
}

type shapeTallyFile struct {
	Schema  string                `json:"schema"`
	Tallies map[string]shapeTally `json:"tallies"` // circuit name
}

func TestShapeTallies(t *testing.T) {
	nets := differentialSuite(t)
	got := make(map[string]shapeTally)
	for _, c := range goldenCircuits() {
		var col Collector
		opts := DefaultOptions(4)
		opts.Observer = &col
		if _, err := Map(nets[c.Name], opts); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		r := AggregateEvents(col.Events())
		got[c.Name] = shapeTally{Trees: r.Trees, Solves: r.Solves, MemoHits: r.MemoHits, WorkUnits: r.WorkUnits}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(shapeTallyFile{Schema: shapeTallySchema, Tallies: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(shapeTallyPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(shapeTallyPath))
	if err != nil {
		t.Fatalf("no tally pin (run with -update to create): %v", err)
	}
	var want shapeTallyFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", shapeTallyPath, err)
	}
	if want.Schema != shapeTallySchema {
		t.Fatalf("%s has schema %q, this test speaks %q", shapeTallyPath, want.Schema, shapeTallySchema)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if w, ok := want.Tallies[name]; !ok {
			t.Errorf("%s: not pinned (rerun with -update)", name)
		} else if got[name] != w {
			t.Errorf("%s: tallies %+v, pinned %+v", name, got[name], w)
		}
	}
	if len(want.Tallies) != len(got) {
		t.Errorf("pin file has %d entries, the suite produces %d", len(want.Tallies), len(got))
	}
}
