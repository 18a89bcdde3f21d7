package harness

import (
	"strings"
	"testing"
)

// TestPaceStudyGates pins the measured-time pacing acceptance gates: under a
// 4x cost-variance workload the cadence converges to within 25% of the true
// mean wave wall time in at most 16 waves, overruns are counted rather than
// ticks dropped, the RetryAfter hint lands within one measured wave of the
// observed fake-clock drain, and the whole study replays bit-identically.
func TestPaceStudyGates(t *testing.T) {
	res, err := PaceStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("cadence did not converge by wave 16: ConvergedAt=%d final pace %.4g ms vs true mean %.4g ms",
			res.ConvergedAt, res.FinalPaceMs, res.TrueMeanMs)
	}
	if res.Overruns != res.OverrunsSeen {
		t.Fatalf("overrun totals %d disagree with per-report flags %d", res.Overruns, res.OverrunsSeen)
	}
	if res.Overruns == 0 {
		t.Fatal("study never overran — the nominal period was supposed to be half the true wall time")
	}
	if res.WavesRun != res.PaceCalls {
		t.Fatalf("waves run %d != pace calls %d: a tick was silently dropped", res.WavesRun, res.PaceCalls)
	}
	if !res.RetryWithinOneWave {
		t.Fatalf("RetryAfter %.4g ms not within one measured wave (%.4g ms) of drain %.4g ms",
			res.RetryAfterMs, res.MeasuredMs, res.DrainMs)
	}
	if res.RetryErrAfter >= res.RetryErrBefore {
		t.Fatalf("measured-period pricing error %.3f not better than configured-period error %.3f",
			res.RetryErrAfter, res.RetryErrBefore)
	}
	if res.ShedBoundMs <= res.ShedBoundNominalMs {
		t.Fatalf("measured-period shed bound %.4g ms should exceed the nominal-period one %.4g ms under overrun",
			res.ShedBoundMs, res.ShedBoundNominalMs)
	}
	if !res.ReplayIdentical {
		t.Fatal("fake-clock replay was not bit-identical")
	}
}

// TestPrintPaceStudy pins the printer's summary lines.
func TestPrintPaceStudy(t *testing.T) {
	res, err := PaceStudy()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintPaceStudy(&sb, res)
	out := sb.String()
	for _, want := range []string{
		"cadence converged: ",
		"overruns: ",
		"retry-after: ",
		"replay: bit-identical: ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("study output missing %q:\n%s", want, out)
		}
	}
}
