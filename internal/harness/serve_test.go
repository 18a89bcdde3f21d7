package harness

import (
	"fmt"
	"math"
	"testing"

	"repro/sig/serve"
)

// TestServeStudyShedsQualityUnderOverload gates the serving tentpole on
// the acceptance criteria: under the 4x overload step the admission
// controller degrades the provided ratio instead of queueing unboundedly
// (latency p99 bounded, nothing rejected), recovers within 8 waves after
// the step ends, and the open loop replays bit-identically, joules
// included: run again, and on a 4-worker server, since decisions and joules
// do not depend on the worker count.
func TestServeStudyShedsQualityUnderOverload(t *testing.T) {
	for _, backend := range []string{"sobel", "kmeans"} {
		t.Run(backend, func(t *testing.T) {
			res, err := ServeStudy(backend)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcomes.Rejected != 0 {
				t.Errorf("%d requests rejected: overload must shed quality before requests", res.Outcomes.Rejected)
			}
			if res.PreStepRatio < 0.95 {
				t.Errorf("pre-step ratio %.3f, want ~1 under light load", res.PreStepRatio)
			}
			if res.MinStepRatio > res.PreStepRatio-0.3 {
				t.Errorf("ratio only fell to %.3f during the step (pre-step %.3f)", res.MinStepRatio, res.PreStepRatio)
			}
			if res.P99 > 6 {
				t.Errorf("open-loop p99 latency %d waves, want <= 6 (queue must stay bounded)", res.P99)
			}
			if res.RecoveredAfter < 0 || res.RecoveredAfter > 8 {
				t.Errorf("recovered after %d waves, want within 8 of the step ending", res.RecoveredAfter)
			}
			maxDepth := 0
			for _, row := range res.Rows {
				maxDepth = max(maxDepth, row.Depth)
			}
			if limit := 8 * serveBasePerWave; maxDepth > limit {
				t.Errorf("queue depth peaked at %d (> %d): shedding did not bound the backlog", maxDepth, limit)
			}
			// The stream's drop-only requests (no degraded body) must show
			// up as drops — charged zero modeled joules by the runtime.
			if res.Outcomes.Dropped == 0 {
				t.Error("no dropped outcomes: the drop-only tier was not exercised")
			}
			if res.Outcomes.Accurate+res.Outcomes.Degraded+res.Outcomes.Dropped != res.Outcomes.Completed {
				t.Errorf("outcome conservation broken: %+v", res.Outcomes)
			}
			// Closed loop: a saturating client population is served at a
			// degraded ratio with bounded latency.
			if res.ClosedRatio > 0.9 {
				t.Errorf("closed-loop ratio %.3f: %d clients should saturate the budget", res.ClosedRatio, res.Clients)
			}
			if res.ClosedP99 > 6 {
				t.Errorf("closed-loop p99 %d waves, want <= 6", res.ClosedP99)
			}

			// Replay the study, then the open loop at twice the workers (the
			// wave budget stays the same): every wave's decisions and modeled
			// joules are pure functions of the declared costs.
			again, err := ServeStudy(backend)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ServeBackendByName(backend, studyScale)
			if err != nil {
				t.Fatal(err)
			}
			var res4 ServeResult
			if err := serveOpenLoop(serveScenario(b, 2*serveWorkers), &res4); err != nil {
				t.Fatal(err)
			}
			for _, replay := range []struct {
				name string
				res  ServeResult
			}{{"a rerun", again}, {fmt.Sprintf("%d workers", 2*serveWorkers), res4}} {
				if math.Float64bits(res.Outcomes.Joules) != math.Float64bits(replay.res.Outcomes.Joules) {
					t.Fatalf("total joules diverged on %s: %v vs %v", replay.name, res.Outcomes.Joules, replay.res.Outcomes.Joules)
				}
				for w := range res.Rows {
					if a, b := res.Rows[w], replay.res.Rows[w]; !sameWave(a, b) {
						t.Fatalf("wave %d diverged on %s: %+v vs %+v", w, replay.name, a, b)
					}
				}
			}
		})
	}
}

// sameWave reports whether two wave reports are equal, every float bit for
// bit.
func sameWave(a, b serve.WaveReport) bool {
	for _, f := range [][2]float64{
		{a.Stats.RequestedRatio, b.Stats.RequestedRatio},
		{a.Stats.ProvidedRatio, b.Stats.ProvidedRatio}, {a.Stats.Joules, b.Stats.Joules},
		{a.Control.NextRatio, b.Control.NextRatio}, {a.Control.Measure, b.Control.Measure},
		{a.Control.WindowMean, b.Control.WindowMean}, {a.Budget, b.Budget},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a == b
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
	if _, err := ServeStudy("nope"); err == nil {
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
