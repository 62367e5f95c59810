package chortle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chortle/internal/bench"
)

// The cut engine's byte-identity pin: the SHA-256 of the mapped
// circuit's BLIF for every bundled circuit at K=2..6, mapped both from
// the in-memory optimized network ("mem") and from that network after a
// WriteBLIF -> ReadBLIF round trip ("blif", the path a served request
// takes). A representation or performance change to internal/cut must
// leave every hash unchanged; the goldens only pin counts and depth.
// After an intentional output change, regenerate with
//
//	go test -run TestCutEngineByteIdentity -update .

const cutPinSchema = "chortle-cut-blif-sha256/v1"

type cutPinFile struct {
	Schema string            `json:"schema"`
	SHA256 map[string]string `json:"sha256"` // "<circuit>/k<K>/<mem|blif>"
}

var cutPinPath = filepath.Join("testdata", "cut_blif_sha256.json")

// cutBLIFHash maps nw with the cut engine at K and hashes the BLIF.
func cutBLIFHash(t *testing.T, nw *Network, k int) string {
	t.Helper()
	opts := DefaultOptions(k)
	opts.Engine = EngineCut
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

func TestCutEngineByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the whole bundled suite")
	}
	got := cutPinFile{Schema: cutPinSchema, SHA256: make(map[string]string)}
	for _, c := range goldenCircuits() {
		nw, err := bench.Optimized(c)
		if err != nil {
			t.Fatalf("preparing %s: %v", c.Name, err)
		}
		var sb strings.Builder
		if err := WriteBLIF(&sb, nw); err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 6; k++ {
			got.SHA256[fmt.Sprintf("%s/k%d/mem", c.Name, k)] = cutBLIFHash(t, nw, k)
			// Map reindexes its input, so each round trip reads a fresh copy.
			rt, err := ReadBLIF(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("%s: reading BLIF back: %v", c.Name, err)
			}
			got.SHA256[fmt.Sprintf("%s/k%d/blif", c.Name, k)] = cutBLIFHash(t, rt, k)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cutPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(cutPinPath)
	if err != nil {
		t.Fatalf("no pin file (run with -update to create): %v", err)
	}
	var want cutPinFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", cutPinPath, err)
	}
	if want.Schema != cutPinSchema {
		t.Fatalf("%s has schema %q, this test speaks %q", cutPinPath, want.Schema, cutPinSchema)
	}
	keys := make([]string, 0, len(got.SHA256))
	for key := range got.SHA256 {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if w, ok := want.SHA256[key]; !ok {
			t.Errorf("%s: not pinned (rerun with -update)", key)
		} else if got.SHA256[key] != w {
			t.Errorf("%s: BLIF sha256 %s, pinned %s", key, got.SHA256[key], w)
		}
	}
	if len(want.SHA256) != len(got.SHA256) {
		t.Errorf("pin file has %d entries, the suite produces %d", len(want.SHA256), len(got.SHA256))
	}
}
