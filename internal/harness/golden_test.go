package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current study output (make goldens)")

// TestStudyGoldens pins the full printed output of every entry of Studies —
// every wave row, ratio, outcome count and modeled joule, not only the gate
// lines — against testdata/<name>.golden. "Byte-identical to the parent" for
// a refactor of the serving stack means this test passes without -update; a
// PR that changes behaviour on purpose regenerates (make goldens) and
// explains each differing line. The studies run on declared costs (and every
// serving study on a FakeClock behind the production pacer), so the output is
// the same at any GOMAXPROCS.
func TestStudyGoldens(t *testing.T) {
	for _, study := range Studies {
		t.Run(study.Name, func(t *testing.T) {
			var got bytes.Buffer
			if err := study.Run(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", study.Name+".golden")
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
