package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutants are one-statement edits of the real product code that still
// compile and that tier-1 (go build ./... && go test ./...), `make race` and
// the alloc gates (TestSubmitAllocs, TestServeSubmitAllocs,
// TestRouterWaveAllocs) all pass: defects only the named analyzer sees. A
// row is its analyzer's reason to exist — remove the analyzer from main and
// its row fails — and DESIGN.md's "Static verification layer" table quotes
// them.
var mutants = []struct {
	analyzer string
	file     string // relative to the module root
	old, new string
	// escape, for a noalloc row, is the -gcflags=-m verdict the edit must
	// produce on its line: a flagged statement that does not allocate is a
	// false positive, not a catch.
	escape string
}{
	{
		// Submit's wrong-runtime panic without handing the drawn task back
		// to its pool: the leak fixed by hand in PR 4. A pool miss is
		// invisible to every test.
		analyzer: "poolpair",
		file:     "sig/sig.go",
		old:      "\t\trt.pools.release(t)\n\t\tpanic(\"sig: task label belongs to a different runtime\")",
		new:      "\t\tpanic(\"sig: task label belongs to a different runtime\")",
	},
	{
		// A body-end resolution stamped off the wall clock instead of the
		// WaveClock: under a FakeClock, Ticket.Latency reads decades. The
		// studies read WaveLatency only, so no golden moves.
		analyzer: "determinism",
		file:     "sig/serve/hotpath.go",
		old:      "s.resolve(slot.tk, o, s.wave.Load(), s.clock.Now().UnixNano())",
		new:      "s.resolve(slot.tk, o, s.wave.Load(), time.Now().UnixNano())",
	},
	{
		// The deadline sweep compacting into a fresh slice instead of in
		// place: an allocation per lane per wave that holds a deadlined
		// request, a path the alloc gates (no deadlines) never take.
		analyzer: "noalloc",
		file:     "sig/serve/serve.go",
		old:      "\t\tkept := l.q[:0]\n",
		new:      "\t\tkept := make([]*Ticket, 0, len(l.q))\n",
		escape:   "make([]*Ticket, 0, len(l.q)) escapes to heap",
	},
}

// TestMutantsAreFlagged builds siglint once and vets each mutant through
// the go command's -overlay, the same vet-tool protocol `make lint` speaks.
func TestMutantsAreFlagged(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("needs the go command")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "siglint")
	goCmd(t, root, true, "build", "-o", bin, "./cmd/siglint")
	for _, m := range mutants {
		t.Run(m.analyzer, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the row's original text appears %d times, want once: update the row", m.file, n)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o666); err != nil {
				t.Fatal(err)
			}
			overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}}) // strings always marshal
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o666); err != nil {
				t.Fatal(err)
			}
			pkg := "./" + filepath.Dir(m.file)

			out := goCmd(t, root, false, "vet", "-overlay="+overlayFile, "-vettool="+bin, pkg)
			if !hasLine(out, filepath.Base(m.file)+":", "[siglint/"+m.analyzer+"]") {
				t.Errorf("%s is not flagged by %s:\n%s", m.file, m.analyzer, out)
			}
			if m.escape != "" {
				line := 1 + strings.Count(string(src[:strings.Index(string(src), m.old)]), "\n")
				out := goCmd(t, root, true, "build", "-overlay="+overlayFile, "-gcflags=-m", pkg)
				if pos := filepath.Base(m.file) + ":" + strconv.Itoa(line) + ":"; !hasLine(out, pos, m.escape) {
					t.Errorf("%s:%d does not allocate (-gcflags=-m has no %q):\n%s", m.file, line, m.escape, out)
				}
			}
		})
	}
}

// goCmd runs the go command in dir and returns its combined output; ok says
// whether it must succeed.
func goCmd(t *testing.T, dir string, ok bool, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if ok && err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// hasLine reports whether some line of out contains both a and b.
func hasLine(out, a, b string) bool {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, a) && strings.Contains(l, b) {
			return true
		}
	}
	return false
}
