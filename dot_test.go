package chortle

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The DOT exporter's output for a provenance-recorded mapping is pinned
// byte for byte in testdata/golden_dot/: the graph must not depend on
// the worker count (clusters come from provenance trees, colors from
// the origin class). Regenerate with: go test -run TestGoldenDOT -update

func goldenDOTPath(circuit string) string {
	return filepath.Join("testdata", "golden_dot", circuit+".dot")
}

// dotCircuits are small enough that the golden files stay reviewable.
var dotCircuits = []string{"majority", "xor5", "rd53"}

func TestGoldenDOT(t *testing.T) {
	for _, name := range dotCircuits {
		name := name
		// Not t.Parallel: the subtests set the process-wide GOMAXPROCS.
		t.Run(name, func(t *testing.T) {
			nw, err := BenchmarkNetwork(name)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			forEachProcs(t, func(procs int) {
				opts := DefaultOptions(4)
				opts.Provenance = true
				res, err := Map(nw, opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteCircuitDOT(&buf, res.Circuit); err != nil {
					t.Fatal(err)
				}
				if err := ValidateDOT(buf.Bytes()); err != nil {
					t.Fatalf("exported DOT fails validation: %v", err)
				}
				if want == nil {
					want = buf.Bytes()
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(goldenDOTPath(name)), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(goldenDOTPath(name), want, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				} else if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("DOT output differs at %d workers — export must not depend on the worker count", procs)
				}
			})
			golden, err := os.ReadFile(goldenDOTPath(name))
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(golden, want) {
				t.Fatalf("DOT output for %s differs from %s (run with -update to regenerate)",
					name, goldenDOTPath(name))
			}
		})
	}
}

// TestGoldenDOTFilesValidate round-trips the checked-in golden files
// through the structural validator, so a hand-edited or truncated
// golden cannot silently pass the byte comparison above.
func TestGoldenDOTFilesValidate(t *testing.T) {
	for _, name := range dotCircuits {
		data, err := os.ReadFile(goldenDOTPath(name))
		if err != nil {
			t.Fatalf("%v (run TestGoldenDOT with -update to regenerate)", err)
		}
		if err := ValidateDOT(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
