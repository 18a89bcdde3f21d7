package main

import (
	"cmp"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutants are one-statement edits of the real product code that still
// compile, each with the one check that must catch it. An analyzer row
// (analyzer set) is a defect that tier-1 (go build ./... && go test ./...),
// `make race` and the alloc gates (TestSubmitAllocs, TestServeSubmitAllocs,
// TestRouterWaveAllocs) all pass and only the named analyzer sees: the row is
// its analyzer's reason to exist — remove the analyzer from main and its row
// fails — and DESIGN.md's "Static verification layer" table quotes them. A
// test row (test set, named by name) is a defect the named test, run with
// -run test in pkg, must fail on: the row is why that test, or the golden it
// compares, is there.
var mutants = []struct {
	analyzer string
	name     string // a test row's subtest name; an analyzer row is named by its analyzer
	test     string // the -run pattern that must report "--- FAIL: <test>"
	pkg      string // a test row's package, relative to the module root
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
		old:      "\t\trt.pools.releaseChunk(one)\n\t\tpanic(\"sig: task label belongs to a different runtime\")",
		new:      "\t\tpanic(\"sig: task label belongs to a different runtime\")",
	},
	{
		// A body-end resolution stamped off the wall clock instead of the
		// WaveClock: under a FakeClock, Ticket.Latency reads decades. The
		// studies read WaveLatency only, so no golden moves.
		analyzer: "determinism",
		file:     "sig/serve/hotpath.go",
		old:      "s.resolve(tk, o, s.wave.Load(), s.clock.Now().UnixNano())",
		new:      "s.resolve(tk, o, s.wave.Load(), time.Now().UnixNano())",
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
	{
		// The pacer pricing a wave without its workers factor (its price
		// method was perShard while a server could run several shards):
		// half a 2-worker server's capacity. The studies fire every wave
		// through the pump's own step, so the serving goldens move; a study
		// with a budget rule of its own again would not.
		name: "perShard",
		test: "TestStudyGoldens/serve",
		pkg:  "./internal/harness",
		file: "sig/serve/pacer.go",
		old:  "return float64(p.workers) * float64(p.effective())",
		new:  "return float64(p.effective())",
	},
	{
		// The wave's end leaving each request's ran flag set: the next wave
		// that reuses the index takes its request for one a body served,
		// never resolves the policy's drop, and its waiter hangs.
		name: "ranReset",
		test: "TestServeReleaseAtDoneResubmits",
		pkg:  "./sig/serve",
		file: "sig/serve/hotpath.go",
		old:  "\t\ts.ran[i].Store(false)\n",
		new:  "",
	},
	{
		// A wave without its follow-on admission: a request that queues
		// while the wave runs waits a whole cadence for the next one, though
		// the wave's budget had room for it. In fake time no arrival lands
		// mid-wave, so no golden moves.
		name: "followOn",
		test: "TestServeFollowOnAdmission",
		pkg:  "./sig/serve",
		file: "sig/serve/serve.go",
		old:  "\tif batch = s.admit(s.clock.Now(), ratio, true); len(batch) > n {\n\t\trep.Stats.Merge(s.runBatch(batch, n, &rep))\n\t}\n",
		new:  "\t_ = n\n",
	},
	{
		// Submit never posting the due token (its arrival step posts only
		// the idle wake): an arrival that finds its wave due waits out the
		// pump's late timer instead of firing it.
		name: "dueArrival",
		test: "TestServeDueArrivalFiresWave",
		pkg:  "./sig/serve",
		file: "sig/serve/pacer.go",
		old:  "if fire, _, _ := p.next(now, wake); fire {",
		new:  "if wake {",
	},
	{
		// A wave's begin not storing its start: the due time, one cadence
		// after the last start, stays one cadence after New's clock reading,
		// so past it every arrival finds a wave due and fires one
		// back-to-back, less than a cadence after the last.
		name: "beginStart",
		test: "TestServeDueWavesKeepCadence",
		pkg:  "./sig/serve",
		file: "sig/serve/pacer.go",
		old:  "\tp.startNs.Store(start.UnixNano())\n",
		new:  "",
	},
	{
		// The due rule never calling a token wave early: every wave is a
		// cadence wave, so none carries the previous load reading and an
		// early wave is priced as if it spanned a whole period.
		name: "nextEarly",
		test: "TestServeEarlyWavesReadFleetLoad",
		pkg:  "./sig/serve",
		file: "sig/serve/pacer.go",
		old:  "early = token && now.UnixNano() < due",
		new:  "early = false",
	},
	{
		// The pump firing a wave only when next finds one due, not on every
		// return of its wait: a timer that fires before the due time — a
		// wall clock stepped back under Start's monotonic timer — is re-armed
		// for the same wakeAt, and nothing is served until the wall clock
		// catches up.
		name: "pumpFireCheck",
		test: "TestServeFakeTimeWake/timer_before_wakeAt",
		pkg:  "./sig/serve",
		file: "sig/serve/pacer.go",
		old:  "\t\twave(token)\n\t\t_, _, wakeAt = p.next(clock.Now(), false)\n",
		new:  "\t\tif fire, _, _ := p.next(clock.Now(), token); fire {\n\t\t\twave(token)\n\t\t}\n\t\t_, _, wakeAt = p.next(clock.Now(), false)\n",
	},
	{
		// The pump arming its timer a cadence after each wave's end, not for
		// next's due time: an overrunning wave's successor waits a cadence it
		// does not owe. The studies fire every wave through the pump, so the
		// pace golden's observed drain stretches (5.102 → 9.903 ms).
		name: "pumpWakeAt",
		test: "TestStudyGoldens/pace",
		pkg:  "./internal/harness",
		file: "sig/serve/pacer.go",
		old:  "_, _, wakeAt = p.next(clock.Now(), false)",
		new:  "wakeAt = clock.Now().Add(p.period())",
	},
	{
		// The pacer's cadence ceiling at WavePeriod instead of
		// maxPeriodMult×WavePeriod: an overrunning wave can no longer
		// stretch the cadence past the nominal period. The pace golden
		// moves too; the unit test names the clamp itself.
		name: "maxPeriod",
		test: "TestServePacerBounds",
		pkg:  "./sig/serve",
		file: "sig/serve/pacer.go",
		old:  "maxPeriodMult*int64(cfg.WavePeriod)",
		new:  "int64(cfg.WavePeriod)",
	},
	{
		// Perforation's error-diffusion step truncated instead of rounded:
		// at ratio 0.8 the fifth task no longer carries, so the dropped
		// set shifts. Every perforation ratio test still holds within a
		// task; only the paper golden's Perforation rows see it (Sobel at
		// Mild and Medium, MC and Jacobi at Mild).
		name: "perforationRound",
		test: "TestStudyGoldens/paper",
		pkg:  "./internal/harness",
		file: "sig/policy.go",
		old:  "uint64(math.Round(p.g.Ratio() * (1 << 32)))",
		new:  "uint64(p.g.Ratio() * (1 << 32))",
	},
	{
		// Sobel's degraded pixel read one difference off (its table indexed
		// at 256+d instead of 255+d): every approximated row brightens or
		// darkens by two levels a pixel. The serving goldens read declared
		// costs only; the GTB(max) quality golden sees the shifted edges, as
		// do the paper and adaptive study goldens.
		name: "approxTable",
		test: "TestKernelQualityGoldens",
		pkg:  "./internal/harness",
		file: "internal/bench/sobel/sobel.go",
		old:  "approxTable[(255+int(row[x])-int(row[x-2]))&511]",
		new:  "approxTable[(256+int(row[x])-int(row[x-2]))&511]",
	},
	{
		// LQH classifying against half its history: a noisier quantile
		// estimate that every ratio bound still admits. At one worker the
		// paper golden's LQH rows move (Sobel Medium prov% 39.8 → 33.5).
		name: "lqhHistory",
		test: "TestStudyGoldens/paper",
		pkg:  "./internal/harness",
		file: "sig/policy.go",
		old:  "DefaultLQHHistory = 32",
		new:  "DefaultLQHHistory = 16",
	},
}

// TestMutantsAreFlagged applies each mutant through the go command's
// -overlay, which never edits the tree. An analyzer row is vetted with
// siglint, built once, over the same vet-tool protocol `make lint` speaks; a
// test row runs its test, which must fail.
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
		t.Run(cmp.Or(m.analyzer, m.name), func(t *testing.T) {
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
			if m.test != "" {
				out := goCmd(t, root, false, "test", "-count=1", "-overlay="+overlayFile, "-run", m.test, m.pkg)
				if !strings.Contains(out, "--- FAIL: "+m.test) {
					t.Errorf("%s passes under the mutant of %s:\n%s", m.test, m.file, out)
				}
				return
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
