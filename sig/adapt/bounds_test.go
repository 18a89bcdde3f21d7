package adapt_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/sig"
	"repro/sig/adapt"
)

// fakeTarget is a bare ratio knob: the reaction-bound and window-floor
// tests drive the controller against a simulated load model, no runtime.
type fakeTarget struct{ ratio float64 }

func (f *fakeTarget) SetRatio(r float64) { f.ratio = r }

// loadSim replays sig/serve's admission arithmetic at the cost-sum level:
// a FIFO backlog of identical declared-cost requests, greedy admission up
// to a wave budget priced at the commanded ratio, and the serve load
// signal (fresh arrivals + DrainGain·backlog, over the budget). It is the
// load model the bounds in bounds.go are derived for, stripped to the
// arithmetic.
type loadSim struct {
	ctl       *adapt.Controller
	tgt       *fakeTarget
	cAcc      float64
	cDeg      float64
	budget    float64
	drainGain float64
	backlog   int
	wave      int
	lastLoad  float64
	samples   []adapt.Sample // what each wave's Observe returned
}

func (s *loadSim) at(r float64) float64 { return r*s.cAcc + (1-r)*s.cDeg }

// runWave admits one wave of the given fresh arrivals and observes the
// controller; it returns the wave's measured load and the ratio the wave
// ran at.
func (s *loadSim) runWave(arrivals int) (load, ratio float64) {
	r := s.tgt.ratio
	s.backlog += arrivals
	var cost float64
	admitted := 0
	for admitted < s.backlog {
		c := s.at(r)
		if admitted > 0 && cost+c > s.budget {
			break
		}
		cost += c
		admitted++
	}
	s.backlog -= admitted
	load = (float64(arrivals)*s.at(r) + s.drainGain*float64(s.backlog)*s.at(r)) / s.budget
	s.lastLoad = load
	s.samples = append(s.samples, s.ctl.Observe(s.tgt, sig.WaveStats{
		Wave:           s.wave,
		RequestedRatio: r,
		ProvidedRatio:  r,
		Submitted:      admitted,
	}))
	s.wave++
	return load, r
}

func newLoadSim(t *testing.T, cAcc, cDeg, budget float64, wf *adapt.WindowFloor) *loadSim {
	t.Helper()
	sim := &loadSim{
		tgt:       &fakeTarget{ratio: 1},
		cAcc:      cAcc,
		cDeg:      cDeg,
		budget:    budget,
		drainGain: 0.5,
	}
	ctl, err := adapt.New(adapt.Config{
		Objective:   adapt.TargetLoad,
		Budget:      1.0,
		Measure:     func(sig.WaveStats) float64 { return sim.lastLoad },
		WindowFloor: wf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.ctl = ctl
	return sim
}

// TestReactionBoundsOnServingLoadModel is the invariant-suite side of the
// derived SLO bound: across randomized load steps (base rate, overload
// multiple, utilization, cost shapes) the secant law must bring the load
// back under the cap within ShedBound waves of the step, and recover the
// pre-step ratio within backlog-drain + RecoverBound waves of the step's
// end. The simulated load model satisfies the bounds' assumptions by
// construction: declared costs (affine measure), an absorbable step
// (degraded-only load under the cap), genuine overload while shedding.
func TestReactionBoundsOnServingLoadModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		base := 4 + rng.Intn(13)
		util := 0.5 + 0.25*rng.Float64()
		over := 2 + rng.Intn(5)
		if float64(over)*util < 1.5 {
			over = int(math.Ceil(1.6 / util)) // keep the step a genuine overload
		}
		cAcc := 10_000 + rng.Float64()*40_000
		cDeg := cAcc * (0.02 + 0.1*rng.Float64())
		sim := newLoadSim(t, cAcc, cDeg, float64(base)*cAcc/util, nil)

		for w := 0; w < 8; w++ {
			sim.runWave(base) // settle at the base rate (ratio holds at 1)
		}
		pre := sim.tgt.ratio

		// Step up: first wave with the stepped arrivals is the detect wave.
		shedBound := adapt.ShedBound(pre - 0)
		shed := -1
		stepWaves := shedBound + 4
		for w := 1; w <= stepWaves; w++ {
			load, _ := sim.runWave(base * over)
			if shed < 0 && load <= 1.0 {
				shed = w
			}
		}
		if shed < 0 || shed > shedBound {
			t.Errorf("trial %d (base=%d over=%d util=%.2f deg/acc=%.2f): shed in %d waves, bound %d",
				trial, base, over, util, cDeg/cAcc, shed, shedBound)
		}

		// Step back down: drain the leftover backlog, then climb home.
		// Per-wave net drain is at least budget/cAcc − 1 − base requests
		// (admission admits at worst full-cost requests, minus the fresh
		// base arrivals); the climb side comes from RecoverBound.
		netDrain := float64(base)/util - 1 - float64(base)
		drainWaves := 0
		if sim.backlog > 0 {
			drainWaves = int(math.Ceil(float64(sim.backlog) / netDrain))
		}
		recoverBound := drainWaves + adapt.RecoverBound(pre-0, 1-util)
		recovered := -1
		for w := 1; w <= recoverBound+5; w++ {
			sim.runWave(base)
			if sim.tgt.ratio >= pre-0.05 {
				recovered = w
				break
			}
		}
		if recovered < 0 || recovered > recoverBound {
			t.Errorf("trial %d (base=%d over=%d util=%.2f): recovered in %d waves, bound %d (drain %d)",
				trial, base, over, util, recovered, recoverBound, drainWaves)
		}
	}
}

// TestWindowFloorHoldsMean: under a sustained overload whose unfloored
// equilibrium sits below the floor, the windowed controller must (a) keep
// every full-window mean of the provided ratio at or above the floor,
// (b) still dip individual waves below it — the floor is a long-run
// average, not a per-wave clamp — and (c) replay bit-identically.
func TestWindowFloorHoldsMean(t *testing.T) {
	const window, floor = 6, 0.5
	run := func() ([]float64, []float64) {
		sim := newLoadSim(t, 30_000, 4_000, 8*30_000/0.6, &adapt.WindowFloor{Window: window, Floor: floor})
		var provided []float64
		for w := 0; w < 40; w++ {
			_, r := sim.runWave(8 * 4) // 4x overload from the start of time
			provided = append(provided, r)
		}
		var means []float64
		for _, s := range sim.samples {
			means = append(means, s.WindowMean)
		}
		return provided, means
	}
	provided, means := run()

	dipped := false
	for i := range provided {
		if i+1 >= window {
			var sum float64
			for _, p := range provided[i+1-window : i+1] {
				sum += p
			}
			if mean := sum / window; mean < floor-1e-9 {
				t.Errorf("window ending at wave %d: mean provided %.4f below floor %.2f", i, mean, floor)
			}
		}
		if provided[i] < floor-1e-9 {
			dipped = true
		}
	}
	if !dipped {
		t.Errorf("no wave dipped below the %.2f floor: the window clamp is acting per-wave, not long-run", floor)
	}
	// The trace's WindowMean must agree with the window recomputed from the
	// provided trajectory (they use the same summation order).
	if len(means) != len(provided) {
		t.Fatalf("trace has %d samples, want %d", len(means), len(provided))
	}
	for i, m := range means {
		lo := i + 1 - window
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for _, p := range provided[lo : i+1] {
			sum += p
		}
		if want := sum / float64(i+1-lo); math.Abs(m-want) > 1e-12 {
			t.Fatalf("wave %d: Sample.WindowMean %.6f, recomputed %.6f", i, m, want)
		}
	}

	provided2, _ := run()
	for i := range provided {
		if provided[i] != provided2[i] {
			t.Fatalf("floored trajectory diverged at wave %d: %.17g != %.17g", i, provided[i], provided2[i])
		}
	}
}

// TestWindowFloorDegeneratesToPerWave: Window 1 is a per-wave floor — no
// commanded ratio may sit below it, ever.
func TestWindowFloorDegeneratesToPerWave(t *testing.T) {
	sim := newLoadSim(t, 30_000, 4_000, 8*30_000/0.6, &adapt.WindowFloor{Window: 1, Floor: 0.4})
	for w := 0; w < 20; w++ {
		sim.runWave(8 * 6)
		if r := sim.tgt.ratio; r < 0.4-1e-12 {
			t.Fatalf("wave %d: commanded ratio %.4f below the per-wave floor 0.4", w, r)
		}
	}
}

// TestWindowFloorValidation covers the new constructor error paths.
func TestWindowFloorValidation(t *testing.T) {
	meas := func(sig.WaveStats) float64 { return 0 }
	cases := []adapt.Config{
		{Objective: adapt.TargetLoad, Budget: 1, Measure: meas, WindowFloor: &adapt.WindowFloor{Window: 0, Floor: 0.5}},
		{Objective: adapt.TargetLoad, Budget: 1, Measure: meas, WindowFloor: &adapt.WindowFloor{Window: 4, Floor: -0.1}},
		{Objective: adapt.TargetLoad, Budget: 1, Measure: meas, WindowFloor: &adapt.WindowFloor{Window: 4, Floor: 1.1}},
		{Objective: adapt.TargetLoad, Budget: 1, Measure: meas, Min: 1.1, WindowFloor: &adapt.WindowFloor{Window: 4, Floor: 0.9}},
	}
	for i, cfg := range cases {
		if _, err := adapt.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

// TestBoundArithmetic pins the bound functions' shapes and edges at the
// fixed gains (DefaultMaxStep 0.25, DefaultGain 2).
func TestBoundArithmetic(t *testing.T) {
	if got := adapt.ShedBound(1.0); got != 6 {
		t.Errorf("ShedBound(1) = %d, want 6 (detect + re-anchor + 4 travel)", got)
	}
	if got := adapt.ShedBound(0); got != 2 {
		t.Errorf("ShedBound(0) = %d, want 2", got)
	}
	if got := adapt.ShedBound(0.5); got != 4 {
		t.Errorf("ShedBound(0.5) = %d, want 4", got)
	}
	// Headroom 0.4 at gain 2: climb fraction 0.8 → step 0.2 → 5 travel waves.
	if got := adapt.RecoverBound(1.0, 0.4); got != 7 {
		t.Errorf("RecoverBound(1, 0.4) = %d, want 7", got)
	}
	// Large headroom clamps the climb fraction at 1 — RecoverBound meets
	// ShedBound there.
	if got, want := adapt.RecoverBound(1.0, 0.9), adapt.ShedBound(1.0); got != want {
		t.Errorf("RecoverBound with clamped climb = %d, want %d", got, want)
	}
	if got := adapt.RecoverBound(0.5, 0); got < 1<<30 {
		t.Errorf("RecoverBound with zero headroom = %d, want effectively unbounded", got)
	}
}
