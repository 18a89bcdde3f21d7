package harness

import (
	"io"
	"math"
	"testing"
)

// TestServingStudiesReplay replays each replayable serving study — serve on
// both backends, and slo — from scratch, then again on twice the workers of
// every section (the frozen wave budgets stay the same): every wave's
// decisions and modeled joules are pure functions of the declared costs, so
// every recorded wave report and each play's totals must match bit for bit.
// The studies' own contracts and printed lines are TestStudyGoldens'; pace
// replays itself, on its one worker, inside the study.
func TestServingStudiesReplay(t *testing.T) {
	for _, study := range []struct {
		name string
		run  func(*studyLog) error
	}{
		{"sobel", func(l *studyLog) error { return serveStudy(l, "sobel") }},
		{"kmeans", func(l *studyLog) error { return serveStudy(l, "kmeans") }},
		{"slo", sloStudy},
	} {
		t.Run(study.name, func(t *testing.T) {
			var runs [3]studyLog
			for i, workers := range []int{1, 1, 2} {
				runs[i] = studyLog{w: io.Discard, workers: workers}
				if err := study.run(&runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i, replay := range []string{"a rerun", "twice the workers"} {
				if err := runs[0].diff(&runs[i+1]); err != nil {
					t.Errorf("%s: %v", replay, err)
				}
			}
		})
	}
}

// TestServeStudyPrinterAndBackends covers backend resolution: unknown names
// and out-of-range scales. The printer's lines are TestStudyGoldens/serve's.
func TestServeStudyPrinterAndBackends(t *testing.T) {
	if _, err := ServeBackendByName("nope", 1); err == nil {
		t.Error("unknown backend accepted")
	}
	for _, scale := range []float64{0, -1, 7, 1.0000001, math.NaN(), math.Inf(1)} {
		if _, err := ServeBackendByName("sobel", scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	if err := ServeStudy(io.Discard, "nope"); err == nil {
		t.Error("ServeStudy accepted an unknown backend")
	}
}

// TestServeBackendBodiesAllocNothing holds both backends' request bodies,
// accurate and degraded, at zero allocations: each request owns its output
// (Sobel's frame, kmeans' assignments), built once by NewRequest, so the
// body is pure compute on the serving hot path.
func TestServeBackendBodiesAllocNothing(t *testing.T) {
	for _, name := range []string{"sobel", "kmeans"} {
		b, err := ServeBackendByName(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		req := b.NewRequest(0)
		for body, f := range map[string]func(){"Handler": req.Handler, "Degraded": req.Degraded} {
			if n := testing.AllocsPerRun(10, f); n != 0 {
				t.Errorf("%s %s: %v allocs per run, want 0", name, body, n)
			}
		}
	}
}
