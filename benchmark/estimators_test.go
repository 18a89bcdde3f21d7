package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); !near(got, c.want, 1e-12) {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

// A neighbour that takes the CPU for a third of the window moves the
// whole-window median a lot and the quiet decile hardly at all.
func TestQuietDecileIgnoresNoisySegments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	window := func(noisy int) []float64 {
		seg := make([]float64, 30)
		for i := range seg {
			seg[i] = 1.0 + 0.01*rng.Float64()
			if i < noisy {
				seg[i] *= 1.6
			}
		}
		return seg
	}
	quiet, loud := window(0), window(16)
	if d := quietDecile(loud, true) / quietDecile(quiet, true); d > 1.02 {
		t.Errorf("quiet decile moved by %.1f%% under contention", 100*(d-1))
	}
	if d := median(loud) / median(quiet); d < 1.3 {
		t.Errorf("the test's contention only moved the median by %.1f%%", 100*(d-1))
	}
	// For a rate the good side is the top.
	rates := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 6}
	if got := quietDecile(rates, false); got != 10 {
		t.Errorf("quiet decile of rates = %g, want 10", got)
	}
}

func TestSegments(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSegments(start, 4*time.Second, time.Second)
	s.add(start.Add(-time.Millisecond), 99)     // before the window
	s.add(start.Add(4*time.Second), 99)         // at its end
	s.add(start.Add(100*time.Millisecond), 1)   // segment 0
	s.add(start.Add(900*time.Millisecond), 3)   // segment 0
	s.add(start.Add(2500*time.Millisecond), 10) // segment 2
	if got := s.medians(); len(got) != 2 || got[0] != 2 || got[1] != 10 {
		t.Errorf("medians = %v, want [2 10]", got)
	}
	if got := s.rates(); len(got) != 4 || got[0] != 2 || got[1] != 0 || got[2] != 1 || got[3] != 0 {
		t.Errorf("rates = %v, want [2 0 1 0]", got)
	}
	// Segment 0: two batches of 8 ops took 1 and 3 seconds, 8 ops per 2 s.
	if got := s.throughputs(8); len(got) != 2 || got[0] != 4 || got[1] != 0.8 {
		t.Errorf("throughputs = %v, want [4 0.8]", got)
	}
	// A window shorter than four widths is cut into four.
	if short := newSegments(start, time.Second, time.Second); len(short.vals) != 4 || short.width != 250*time.Millisecond {
		t.Errorf("1 s window: %d segments of %v, want 4 of 250ms", len(short.vals), short.width)
	}
}

// The interleaved ratio's point: scale every pair by its own host speed and
// the ratio does not move, while the raw stack total does; and a hiccup that
// hits one side of a few pairs does not move the median.
func TestBareRatioCancelsHostSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var steady, weather bareRatio
	var rawSteady, rawWeather float64
	for i := 0; i < 200; i++ {
		bare := 1.0 + 0.1*rng.Float64()
		stack := 3 * bare
		speed := 1 + rng.Float64() // the host is up to 2x slower for this pair
		steady.add(stack, bare)
		rawSteady += stack
		if i%20 == 0 {
			stack *= 5 // descheduled in the middle of the stack block
		}
		weather.add(stack*speed, bare*speed)
		rawWeather += stack * speed
	}
	if !near(weather.value(), 3, 1e-9) || !near(steady.value(), 3, 1e-9) {
		t.Errorf("ratios %g and %g, want 3", weather.value(), steady.value())
	}
	if rawWeather < 1.3*rawSteady {
		t.Errorf("the test's weather only moved the raw total by %.0f%%", 100*(rawWeather/rawSteady-1))
	}
}

// Costs add across groups: a group's ratio counts by its bare cost, not by
// how many pairs it has.
func TestCombineWeightsByCost(t *testing.T) {
	var small, big bareRatio
	for i := 0; i < 100; i++ {
		small.add(4, 1) // ratio 4 on a cost of 1
	}
	for i := 0; i < 3; i++ {
		big.add(90, 9) // ratio 10 on a cost of 9
	}
	want := (1.0*4 + 9.0*10) / (1 + 9)
	if got := combine([]*bareRatio{&small, &big}); !near(got, want, 1e-12) {
		t.Errorf("combine = %g, want %g", got, want)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75].
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6}); q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %g %g %g, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if got := spread(ten); !near(got, 1, 1e-12) {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}
