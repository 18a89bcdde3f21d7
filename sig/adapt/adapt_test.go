package adapt_test

import (
	"math"
	"testing"

	"repro/sig"
	"repro/sig/adapt"
)

// streamWorkload drives a synthetic streaming workload under a controller:
// waves of n tasks whose significances follow a fixed pattern, with
// declared costs so modeled energy is deterministic. It returns the
// controller's trace: the Sample each wave's Observe returned. The quality
// probe is the significance-weighted
// accurate fraction of the last wave — a deterministic, monotone function
// of the ratio under GTB max buffering.
func streamWorkload(t *testing.T, workers, waves, n int, startRatio float64, mk func(probe func() float64) *adapt.Controller) []adapt.Sample {
	t.Helper()
	ranAcc := make([]bool, n)
	sigs := make([]float64, n)
	var total float64
	for i := range sigs {
		sigs[i] = float64(i*37%96+1) / 97
		total += sigs[i]
	}
	probe := func() float64 {
		var acc float64
		for i, ok := range ranAcc {
			if ok {
				acc += sigs[i]
			}
		}
		return acc / total
	}
	ctl := mk(probe)
	rt, err := sig.New(sig.Config{Workers: workers, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("stream", startRatio)
	var trace []adapt.Sample
	for w := 0; w < waves; w++ {
		for i := range ranAcc {
			ranAcc[i] = false
		}
		for i := 0; i < n; i++ {
			i := i
			rt.Submit(func() { ranAcc[i] = true },
				sig.WithLabel(g),
				sig.WithSignificance(sigs[i]),
				sig.WithApprox(func() {}),
				sig.WithCost(100, 10))
		}
		trace = append(trace, ctl.Observe(g, rt.WaitPhase(g)))
	}
	return trace
}

func qualityController(t *testing.T, setpoint float64) func(func() float64) *adapt.Controller {
	return func(probe func() float64) *adapt.Controller {
		ctl, err := adapt.New(adapt.Config{
			Objective: adapt.TargetQuality,
			Setpoint:  setpoint,
			Probe:     probe,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
}

// trajectory flattens a trace into the commanded-ratio sequence.
func trajectory(trace []adapt.Sample) []float64 {
	out := make([]float64, len(trace))
	for i, s := range trace {
		out[i] = s.NextRatio
	}
	return out
}

// TestDeterministicReplay: with a fixed workload and modeled costs, the
// controller must reproduce the bit-identical ratio trajectory run-to-run
// and across 1, 4 and 16 workers (and under -race — the CI race job runs
// this test). This is the replay contract that makes adaptive runs
// debuggable: the trajectory is a pure function of the stream.
func TestDeterministicReplay(t *testing.T) {
	const waves, n = 15, 128
	var want []float64
	for _, workers := range []int{1, 4, 16} {
		for run := 0; run < 2; run++ {
			trace := streamWorkload(t, workers, waves, n, 0.2, qualityController(t, 0.8))
			if len(trace) != waves {
				t.Fatalf("workers=%d run=%d: trace has %d waves, want %d", workers, run, len(trace), waves)
			}
			got := trajectory(trace)
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d run=%d: trajectory diverged at wave %d: %.17g != %.17g\nwant %v\ngot  %v",
						workers, run, i, got[i], want[i], want, got)
				}
			}
		}
	}
}

// TestEnergyTargetReplayAndCap: a joules cap (TargetLoad measuring
// ws.Joules) is equally deterministic, converges under the budget, and lands
// near the analytic oracle ratio (wave energy is linear in the accurate count
// with declared costs 100/10).
func TestEnergyTargetReplayAndCap(t *testing.T) {
	const waves, n = 15, 128
	// Budget = energy of a wave with exactly half the tasks accurate.
	budget := sig.DefaultActiveWatts * float64(n/2*100+n/2*10) * 1e-9
	mk := func(func() float64) *adapt.Controller {
		ctl, err := adapt.New(adapt.Config{
			Objective: adapt.TargetLoad,
			Budget:    budget,
			Measure:   func(ws sig.WaveStats) float64 { return ws.Joules },
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	var want []float64
	for _, workers := range []int{1, 4, 16} {
		trace := streamWorkload(t, workers, waves, n, 1.0, mk)
		got := trajectory(trace)
		if want == nil {
			want = got
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: energy trajectory diverged at wave %d: %v vs %v", workers, i, got, want)
				}
			}
		}
		last := trace[len(trace)-1]
		if last.Joules > budget*(1+1e-9) {
			t.Errorf("workers=%d: steady-state wave energy %.6gJ exceeds budget %.6gJ", workers, last.Joules, budget)
		}
		if math.Abs(last.ProvidedRatio-0.5) > 0.05 {
			t.Errorf("workers=%d: steady-state ratio %.3f, want within 0.05 of the analytic oracle 0.5", workers, last.ProvidedRatio)
		}
	}
}

// TestLoadTargetCapsCustomMeasure: TargetLoad regulates a caller-computed
// signal with cap semantics — the steady state provides the highest ratio
// whose load fits the budget, and the trajectory replays identically across
// worker counts. The synthetic measure is linear in the ratio (load =
// 0.4 + 1.6*ratio, so load = 1.2 exactly at ratio 0.5), mirroring how
// sig/serve prices demand from declared request costs.
func TestLoadTargetCapsCustomMeasure(t *testing.T) {
	const waves, n = 15, 128
	mk := func(func() float64) *adapt.Controller {
		ctl, err := adapt.New(adapt.Config{
			Objective: adapt.TargetLoad,
			Budget:    1.2,
			Measure: func(ws sig.WaveStats) float64 {
				return 0.4 + 1.6*ws.RequestedRatio
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	var want []float64
	for _, workers := range []int{1, 4} {
		trace := streamWorkload(t, workers, waves, n, 1.0, mk)
		got := trajectory(trace)
		if want == nil {
			want = got
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: load trajectory diverged at wave %d: %v vs %v", workers, i, got, want)
				}
			}
		}
		last := trace[len(trace)-1]
		if last.Measure > 1.2*(1+1e-9) {
			t.Errorf("workers=%d: steady-state load %.4f exceeds the 1.2 cap", workers, last.Measure)
		}
		if math.Abs(last.NextRatio-0.5) > 0.05 {
			t.Errorf("workers=%d: steady-state ratio %.3f, want within 0.05 of the analytic 0.5", workers, last.NextRatio)
		}
	}
}

// TestQualityConvergesToSetpointFloor: the controller must settle at the
// cheapest ratio holding the probe at or above the setpoint — approaching
// from below (step response up) and from above (minimal energy seeking).
func TestQualityConvergesToSetpointFloor(t *testing.T) {
	const waves, n = 15, 128
	for _, start := range []float64{0.05, 1.0} {
		trace := streamWorkload(t, 1, waves, n, start, qualityController(t, 0.8))
		last := trace[len(trace)-1]
		if last.Measure < 0.8 {
			t.Errorf("start=%.2f: steady-state quality %.4f below setpoint 0.8", start, last.Measure)
		}
		if last.Measure > 0.85 {
			t.Errorf("start=%.2f: steady-state quality %.4f wastes energy (far above setpoint)", start, last.Measure)
		}
		if !last.Held {
			t.Errorf("start=%.2f: controller still moving at wave %d (measure %.4f -> next %.3f)",
				start, last.Wave, last.Measure, last.NextRatio)
		}
	}
}

// TestControllerIgnoresOtherGroupsAndEmptyWaves: under TargetQuality an
// empty wave carries no information. Observe returns the zero Sample, never
// runs the probe and leaves the group's ratio alone.
func TestControllerIgnoresOtherGroupsAndEmptyWaves(t *testing.T) {
	probed := false
	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetQuality, Setpoint: 1, Probe: func() float64 { probed = true; return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sig.New(sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("mine", 0.5)
	if s := ctl.Observe(g, rt.WaitPhase(g)); s != (adapt.Sample{}) {
		t.Errorf("empty wave stepped the controller: %+v", s)
	}
	if probed {
		t.Error("empty wave ran the quality probe")
	}
	if r := g.Ratio(); r != 0.5 {
		t.Errorf("empty wave retuned the ratio to %v, want 0.5 untouched", r)
	}
}

// TestConfigValidation covers the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	meas := func(sig.WaveStats) float64 { return 0 }
	cases := []adapt.Config{
		{Objective: adapt.TargetQuality, Setpoint: 1},                                               // no probe
		{Objective: adapt.TargetQuality, Setpoint: math.Inf(1), Probe: func() float64 { return 0 }}, // bad setpoint
		{Objective: adapt.TargetLoad, Budget: 1},                                                    // no measure
		{Objective: adapt.TargetLoad, Measure: meas},                                                // no budget
		{Objective: adapt.TargetLoad, Budget: -2, Measure: meas},                                    // negative budget
		{Objective: adapt.Objective(42)},                                                            // unknown objective
		{Objective: adapt.TargetLoad, Budget: 1, Measure: meas, Min: 1.1},                           // floor above 1
		{Objective: adapt.TargetLoad, Budget: 1, Measure: meas, Min: -0.5},                          // out-of-range bound
	}
	for i, cfg := range cases {
		if _, err := adapt.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

// TestControllerHotPathAllocs: a control step allocates nothing, under every
// objective and with a window floor. sig/serve runs one per wave, and its
// wave path is held at zero allocations (TestServeSubmitAllocs).
func TestControllerHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	for _, cfg := range []adapt.Config{
		{Objective: adapt.TargetQuality, Setpoint: 0.5, Probe: func() float64 { return 0.4 }},
		{Objective: adapt.TargetLoad, Budget: 1, Measure: func(ws sig.WaveStats) float64 { return ws.Joules }},
		{Objective: adapt.TargetLoad, Budget: 1, WindowFloor: &adapt.WindowFloor{Window: 8, Floor: 0.3},
			// A load that alternates across the cap keeps the commands moving.
			Measure: func(ws sig.WaveStats) float64 { return 0.5 + float64(ws.Wave%2) }},
	} {
		ctl, err := adapt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tgt := &fakeTarget{ratio: 1}
		wave := 0
		avg := testing.AllocsPerRun(1000, func() {
			ctl.Observe(tgt, sig.WaveStats{Wave: wave, Submitted: 1, RequestedRatio: tgt.ratio,
				ProvidedRatio: tgt.ratio, Joules: 2 * tgt.ratio})
			wave++
		})
		if avg != 0 {
			t.Errorf("objective %d: %.2f allocs per Observe, want 0", cfg.Objective, avg)
		}
	}
}

// TestTargetLoadZeroCostWaves pins the load objective's zero-demand edges,
// previously untested: waves whose tasks all declare zero cost (measure 0,
// no usable secant slope) and fully empty waves (which TargetLoad must
// process — zero demand is information) both walk a shed ratio back up to
// 1 without a NaN or an out-of-bounds command ever reaching the group.
func TestTargetLoadZeroCostWaves(t *testing.T) {
	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetLoad,
		Budget:    1.0,
		Measure:   func(ws sig.WaveStats) float64 { return ws.Joules }, // 0 for zero-cost work
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sig.New(sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("zero", 0.05) // start shed, as after an overload

	var trace []adapt.Sample
	for wave := 0; wave < 12; wave++ {
		if wave%2 == 0 { // alternate zero-cost and fully empty waves
			for i := 0; i < 16; i++ {
				rt.Submit(func() {}, sig.WithLabel(g),
					sig.WithSignificance(float64(i%9+1)/10),
					sig.WithApprox(func() {}), sig.WithCost(0, 0))
			}
		}
		s := ctl.Observe(g, rt.WaitPhase(g))
		if s.Wave != wave {
			t.Fatalf("wave %d stepped as wave %d (empty waves are informative for TargetLoad)", wave, s.Wave)
		}
		trace = append(trace, s)
		r := g.Ratio()
		if math.IsNaN(r) || r < 0 || r > 1 {
			t.Fatalf("wave %d: commanded ratio %v out of [0,1]", wave, r)
		}
	}
	for i, s := range trace {
		if math.IsNaN(s.Measure) || math.IsNaN(s.NextRatio) {
			t.Fatalf("wave %d: NaN in the trace: %+v", i, s)
		}
		if s.Measure != 0 {
			t.Errorf("wave %d: zero-cost wave measured %v", i, s.Measure)
		}
	}
	if got := g.Ratio(); got != 1 {
		t.Errorf("ratio %v after 12 zero-demand waves, want recovered to 1", got)
	}
}
