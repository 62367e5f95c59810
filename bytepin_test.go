package chortle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The byte-identity pins: for each pinned engine, the SHA-256 of the
// mapped circuit's BLIF for every bundled circuit at K=2..6, mapped both
// from the in-memory optimized network ("mem") and from that network
// after a WriteBLIF -> ReadBLIF round trip ("blif", the path a served
// request takes). A representation or performance change to an engine
// must leave every hash unchanged; the goldens only pin counts and
// depth. After an intentional output change, regenerate with
//
//	go test -run TestEngineByteIdentity -update .

// enginePin names one engine's pin file and its schema tag.
type enginePin struct {
	engine Engine
	schema string
	path   string
}

var enginePins = []enginePin{
	{EngineTree, "chortle-tree-blif-sha256/v1", filepath.Join("testdata", "tree_blif_sha256.json")},
	{EngineCut, "chortle-cut-blif-sha256/v1", filepath.Join("testdata", "cut_blif_sha256.json")},
}

type pinFile struct {
	Schema string            `json:"schema"`
	SHA256 map[string]string `json:"sha256"` // "<circuit>/k<K>/<mem|blif>"
}

// blifHash maps nw with engine eng at K and hashes the BLIF.
func blifHash(t *testing.T, nw *Network, eng Engine, k int) string {
	t.Helper()
	opts := DefaultOptions(k)
	opts.Engine = eng
	res, err := Map(nw, opts)
	if err != nil {
		t.Fatalf("%s K=%d: %v", nw.Name, k, err)
	}
	h := sha256.New()
	if err := res.Circuit.WriteBLIF(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// suiteBLIFHashes hashes eng's BLIF for every bundled circuit x K=2..6
// x {mem, blif}. The optimized networks are the differential
// harness's shared copies: mapping only renumbers a network's node IDs
// in place, so earlier maps of them change nothing here.
func suiteBLIFHashes(t *testing.T, eng Engine) map[string]string {
	t.Helper()
	nets := differentialSuite(t)
	got := make(map[string]string)
	for _, c := range goldenCircuits() {
		nw := nets[c.Name]
		var sb strings.Builder
		if err := WriteBLIF(&sb, nw); err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 6; k++ {
			got[fmt.Sprintf("%s/k%d/mem", c.Name, k)] = blifHash(t, nw, eng, k)
			// Map reindexes its input, so each round trip reads a fresh copy.
			rt, err := ReadBLIF(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("%s: reading BLIF back: %v", c.Name, err)
			}
			got[fmt.Sprintf("%s/k%d/blif", c.Name, k)] = blifHash(t, rt, eng, k)
		}
	}
	return got
}

func TestEngineByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the whole bundled suite")
	}
	for _, p := range enginePins {
		t.Run(p.engine.String(), func(t *testing.T) {
			got := suiteBLIFHashes(t, p.engine)
			if *updateGolden {
				data, err := json.MarshalIndent(pinFile{Schema: p.schema, SHA256: got}, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p.path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(p.path)
			if err != nil {
				t.Fatalf("no pin file (run with -update to create): %v", err)
			}
			var want pinFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("parsing %s: %v", p.path, err)
			}
			if want.Schema != p.schema {
				t.Fatalf("%s has schema %q, this test speaks %q", p.path, want.Schema, p.schema)
			}
			keys := make([]string, 0, len(got))
			for key := range got {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				if w, ok := want.SHA256[key]; !ok {
					t.Errorf("%s: not pinned (rerun with -update)", key)
				} else if got[key] != w {
					t.Errorf("%s: BLIF sha256 %s, pinned %s", key, got[key], w)
				}
			}
			if len(want.SHA256) != len(got) {
				t.Errorf("pin file has %d entries, the suite produces %d", len(want.SHA256), len(got))
			}
		})
	}
}

// TestWriteBLIFAllocsFlat pins the LUT serializer's allocations to a
// constant per write: names and minterm rows go straight from the
// circuit to the writer, so count (tens of LUTs at K=4) and des (over a
// thousand) get the same bound.
func TestWriteBLIFAllocsFlat(t *testing.T) {
	const bound = 16
	nets := differentialSuite(t)
	for _, name := range []string{"count", "des"} {
		res, err := Map(nets[name], DefaultOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := res.Circuit.WriteBLIF(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d LUTs, %.0f allocs per WriteBLIF", name, res.LUTs, allocs)
		if allocs > bound {
			t.Errorf("%s: WriteBLIF makes %.0f allocations, want at most %d", name, allocs, bound)
		}
	}
}

// TestMapAllocsPerLUT bounds each engine's heap allocations per
// emitted LUT when mapping des at GOMAXPROCS 1, where the tree engine's
// solve pool runs inline. The DP solves on recycled arenas, and the
// netlists a map builds (the cloned network, the LUTs, their input
// lists and their generated names) are carved from chunks sized from
// counts the engine already has, so what an engine allocates grows with
// the number of chunks and trees, not of LUTs.
func TestMapAllocsPerLUT(t *testing.T) {
	setProcs(t, 1)
	nw := differentialSuite(t)["des"]
	for _, c := range []struct {
		engine Engine
		k      int
		bound  float64
	}{{EngineTree, 2, 1.0}, {EngineTree, 5, 1.0}, {EngineCut, 5, 0.5}} {
		opts := DefaultOptions(c.k)
		opts.Engine = c.engine
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Map(nw, opts); err != nil {
				t.Fatal(err)
			}
		})
		perLUT := allocs / float64(res.LUTs)
		t.Logf("des %s K=%d: %d LUTs, %.0f allocs per Map, %.2f per LUT", c.engine, c.k, res.LUTs, allocs, perLUT)
		if perLUT > c.bound {
			t.Errorf("des %s K=%d: %.2f allocations per LUT, want at most %.2f", c.engine, c.k, perLUT, c.bound)
		}
	}
}

// TestReadBLIFAllocs bounds the allocations of reading each bundled
// circuit's BLIF: the network's nodes, fanin lists and names are carved
// from chunks, and its indexes are sized from the parsed counts, so a
// read allocates a few times per chunk, not per node.
func TestReadBLIFAllocs(t *testing.T) {
	const bound = 200
	nets := differentialSuite(t)
	for _, c := range goldenCircuits() {
		var sb strings.Builder
		if err := WriteBLIF(&sb, nets[c.Name]); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadBLIF(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes, %.0f allocs per ReadBLIF", c.Name, len(text), allocs)
		if allocs > bound {
			t.Errorf("%s: ReadBLIF makes %.0f allocations, want at most %d", c.Name, allocs, bound)
		}
	}
}
