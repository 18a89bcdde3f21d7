package harness

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current study output (make goldens)")

// printServe runs the serving overload study on each backend and prints what
// `sigbench serve` prints: the studies in order, a blank line between them.
func printServe(w io.Writer, shards int, backends ...string) error {
	for i, name := range backends {
		if i > 0 {
			fmt.Fprintln(w)
		}
		res, err := ServeStudy(ServeConfig{Scale: 0.1, Shards: shards, Backend: name})
		if err != nil {
			return err
		}
		PrintServeStudy(w, res)
	}
	return nil
}

// TestStudyGoldens pins the full printed output of the deterministic serving
// studies — every wave row, ratio, outcome count and modeled joule, not only
// the gate lines — against goldens recorded at the commit before the
// one-engine collapse. "Byte-identical to the parent" for a refactor of the
// serving stack means this test passes without -update; a PR that changes
// behaviour on purpose regenerates (make goldens) and explains each differing
// line. The studies run on declared costs (and a FakeClock where time
// matters), so the output is the same at any GOMAXPROCS.
func TestStudyGoldens(t *testing.T) {
	for _, tc := range []struct {
		name  string // testdata/<name>.golden
		print func(w io.Writer) error
	}{
		// sigbench serve -scale 0.1 -backend all
		{"serve_all", func(w io.Writer) error { return printServe(w, 0, "sobel", "kmeans") }},
		// sigbench serve -scale 0.1 -shards 4
		{"serve_4shards", func(w io.Writer) error { return printServe(w, 4, "sobel") }},
		// sigbench slo
		{"slo", func(w io.Writer) error {
			res, err := SLOStudy(SLOConfig{})
			if err == nil {
				PrintSLOStudy(w, res)
			}
			return err
		}},
		// sigbench pace
		{"pace", func(w io.Writer) error {
			res, err := PaceStudy(PaceConfig{})
			if err == nil {
				PrintPaceStudy(w, res)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := tc.print(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from %s (regenerate with `make goldens` only if the change is intended)\n%s",
					path, firstDiff(want, got.Bytes()))
			}
		})
	}
}

// firstDiff renders the first line on which two outputs disagree.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want: %s\n   got: %s", i+1, w, g)
		}
	}
	return "(no differing line)"
}
