package sig

import (
	"math"
	"testing"
	"time"
)

// TestWaitPhaseTelemetry checks the phased execution surface: per-wave task
// accounting, wave-local provided ratio and deterministic modeled energy
// from declared costs, across consecutive waves with a ratio change in
// between (the adaptive controller's usage pattern).
func TestWaitPhaseTelemetry(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	g := rt.Group("phase", 0.5)

	if g.wave.Load() != 0 {
		t.Errorf("fresh group phase = %d, want 0", g.wave.Load())
	}
	submitWave := func(n int) {
		for i := 0; i < n; i++ {
			rt.Submit(func() {}, WithLabel(g),
				WithSignificance(float64(i%9+1)/10),
				WithApprox(func() {}), WithCost(100, 10))
		}
	}

	submitWave(40)
	ws := rt.WaitPhase(g)
	if ws.Wave != 0 || g.wave.Load() != 1 {
		t.Errorf("first wave index %d (phase now %d), want 0 (1)", ws.Wave, g.wave.Load())
	}
	if ws.Submitted != 40 || ws.Accurate != 20 || ws.Approximate != 20 || ws.Dropped != 0 {
		t.Errorf("wave 0 accounting %d/%d/%d/%d, want 40 submitted, 20/20/0", ws.Submitted, ws.Accurate, ws.Approximate, ws.Dropped)
	}
	if ws.ProvidedRatio != 0.5 || ws.RequestedRatio != 0.5 {
		t.Errorf("wave 0 ratios req %.2f prov %.2f, want 0.50/0.50", ws.RequestedRatio, ws.ProvidedRatio)
	}
	wantBusy := time.Duration(20*100 + 20*10)
	if ws.Busy != wantBusy {
		t.Errorf("wave 0 busy %v, want %v", ws.Busy, wantBusy)
	}
	wantJ := DefaultActiveWatts * wantBusy.Seconds()
	if math.Abs(ws.Joules-wantJ) > 1e-15 {
		t.Errorf("wave 0 joules %v, want %v", ws.Joules, wantJ)
	}

	// Retune the ratio between waves: the new wave's telemetry must be
	// wave-local (not dragged by wave 0's accounting).
	g.SetRatio(0.25)
	submitWave(40)
	ws = rt.WaitPhase(g)
	if ws.Wave != 1 {
		t.Errorf("second wave index %d, want 1", ws.Wave)
	}
	if ws.Submitted != 40 || ws.Accurate != 10 || ws.Approximate != 30 {
		t.Errorf("wave 1 accounting %d submitted %d/%d, want 40, 10/30", ws.Submitted, ws.Accurate, ws.Approximate)
	}
	if ws.ProvidedRatio != 0.25 {
		t.Errorf("wave 1 provided %.3f, want 0.25 (wave-local, not cumulative)", ws.ProvidedRatio)
	}
}

// TestWaitEmptyGroupReturnsRequestedRatio is the regression test for the
// empty-group taskwait: Wait on a group nothing was submitted to must
// report the requested ratio — never NaN (0/0) and never a misleading 0.
func TestWaitEmptyGroupReturnsRequestedRatio(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation} {
		rt := newRT(t, Config{Policy: kind})
		g := rt.Group("never-used", 0.7)
		provided := rt.Wait(g)
		if math.IsNaN(provided) {
			t.Fatalf("%v: Wait on empty group returned NaN", kind)
		}
		if provided != 0.7 {
			t.Errorf("%v: Wait on empty group returned %v, want the requested ratio 0.7", kind, provided)
		}
		ws := rt.WaitPhase(g)
		if ws.ProvidedRatio != 0.7 || ws.Submitted != 0 {
			t.Errorf("%v: WaitPhase on empty group reported %+v, want provided 0.7", kind, ws)
		}
		st := rt.Stats()
		if got := st.Groups[0].ProvidedRatio; got != 0.7 {
			t.Errorf("%v: Stats provided ratio %v for empty group, want 0.7", kind, got)
		}
		rt.Close()
	}
}

// TestWaitPhaseEmptyAndDefaultGroup pins the phased surface's edges: the
// nil-group (default) spelling, empty waves on a never-submitted group, and
// the wave epoch.
func TestWaitPhaseEmptyAndDefaultGroup(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	defer rt.Close()

	// Empty wave on a never-submitted group: the requested ratio comes
	// back as provided (no 0/0 artifact) and the epoch still advances.
	g := rt.Group("quiet", 0.3)
	ws := rt.WaitPhase(g)
	if ws.Submitted != 0 || ws.Decided() != 0 {
		t.Errorf("empty wave carries tasks: %+v", ws)
	}
	if ws.ProvidedRatio != 0.3 || ws.RequestedRatio != 0.3 {
		t.Errorf("empty wave ratios req %.2f prov %.2f, want 0.30/0.30", ws.RequestedRatio, ws.ProvidedRatio)
	}
	if ws.Joules != 0 || ws.Busy != 0 {
		t.Errorf("empty wave charged %v / %v", ws.Joules, ws.Busy)
	}
	if g.wave.Load() != 1 {
		t.Errorf("empty wave did not advance the epoch: phase %d", g.wave.Load())
	}

	// The nil-group spelling drains the default group.
	ran := 0
	rt.Submit(func() { ran++ }, WithCost(50, 0))
	ws = rt.WaitPhase(nil)
	if ran != 1 || ws.Submitted != 1 || ws.Accurate != 1 {
		t.Errorf("WaitPhase(nil) wave %+v after default-group submit (ran %d)", ws, ran)
	}
	if want := time.Duration(50); ws.Busy != want {
		t.Errorf("WaitPhase(nil) busy %v, want %v", ws.Busy, want)
	}
	// Consecutive empty waves keep reporting the current request.
	g.SetRatio(0.9)
	if ws := rt.WaitPhase(g); ws.ProvidedRatio != 0.9 {
		t.Errorf("retargeted empty wave provided %.2f, want 0.90", ws.ProvidedRatio)
	}
}
