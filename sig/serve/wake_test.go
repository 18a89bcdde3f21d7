package serve

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig/adapt"
	"repro/sig/shard"
)

// slowPump is a real-clock server whose cadence is far longer than any
// test waits (first tick at 1 s, floor 250 ms): whatever resolves quickly
// was resolved by an early wave, not by the timer.
func slowPump(t *testing.T) *Server {
	return newTestServer(t, 8, func(c *Config) {
		c.WavePeriod = time.Second
		c.MinPeriod = 250 * time.Millisecond
	})
}

// cheapRequest is a premium request too small to load any test server: it
// exercises the pump without ever moving the ratio off 1.0.
var cheapRequest = Request{Significance: 1.0, Handler: func() {}, CostAccurate: 1000}

// TestServeIdleArrivalFiresWave: at ratio 1.0 the arrival that ends an idle
// spell does not wait the cadence out — its wave fires at once and is
// counted as early.
func TestServeIdleArrivalFiresWave(t *testing.T) {
	s := slowPump(t)
	defer s.Close()
	s.Start()
	tk, err := s.Submit(cheapRequest)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(50 * time.Millisecond):
		t.Fatal("idle arrival still queued after 50ms of a 1s cadence: no early wave fired")
	}
	if tk.Outcome() != OutcomeAccurate {
		t.Fatalf("outcome %v, want accurate", tk.Outcome())
	}
	// The request resolved at its body's end; the wave is counted when it
	// returns, a moment later and long before the 250 ms cadence floor.
	tot := s.Totals()
	for deadline := time.Now().Add(100 * time.Millisecond); tot.Waves == 0 && time.Now().Before(deadline); tot = s.Totals() {
		time.Sleep(50 * time.Microsecond)
	}
	if tot.EarlyWaves != 1 || tot.Waves != 1 {
		t.Fatalf("EarlyWaves=%d Waves=%d, want exactly the one early wave", tot.EarlyWaves, tot.Waves)
	}
}

// TestServeSheddingKeepsCadence: while the ratio is below 1.0 the cadence is
// the batching window that ranks significance, so an arrival into a
// momentarily empty queue posts no token and waits for the timer.
func TestServeSheddingKeepsCadence(t *testing.T) {
	s := slowPump(t)
	// Sustained overload through explicit waves until the controller sheds,
	// then drain the backlog so the queue is momentarily empty. The first
	// wave retimes the cadence to its 250 ms floor, 5e8 cost units over two
	// workers: costs 1250x request's keep newTestServer's 2.4x overload.
	var served [3]atomic.Int64
	seq := 0
	for w := 0; w < 6; w++ {
		for i := 0; i < 32; i++ {
			req := request(seq, &served)
			req.CostAccurate, req.CostDegraded = 1250*costAcc, 1250*costDeg
			if _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		s.RunWave()
	}
	for s.Depth() > 0 {
		s.RunWave()
	}
	if r := s.Ratio(); r >= 1 {
		t.Fatalf("ratio %v after the overload; the test needs a shedding server", r)
	}
	<-s.pace.wake // the overload's first arrival found an idle server at ratio 1.0
	s.Start()
	tk, err := s.Submit(request(seq, &served))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
		t.Fatal("a wave fired ahead of the cadence while the server was shedding")
	case <-time.After(50 * time.Millisecond):
	}
	if tot := s.Totals(); tot.EarlyWaves != 0 || len(s.pace.wake) != 0 {
		t.Fatalf("EarlyWaves=%d pending tokens=%d, want none while ratio < 1", tot.EarlyWaves, len(s.pace.wake))
	}
	if err := s.Close(); err != nil { // the drain serves what the cadence had not reached
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("Close's drain left the queued request unresolved")
	}
}

// TestServeStepOverloadShedsWithinBound drives a step from idle to 2x
// modeled capacity through the real pump and holds the time to shed against
// adapt.ShedBoundSeconds priced at the period in force. Early waves fire
// only until the first sample over the cap drops the ratio, so they can
// bring detection forward but never delay it.
func TestServeStepOverloadShedsWithinBound(t *testing.T) {
	const (
		period  = 400 * time.Millisecond
		floor   = 100 * time.Millisecond // long against host jitter: the bound is in real seconds
		costAcc = 1e6                    // 1 ms of modeled work; 2 workers => 2000 req/s capacity
		costDeg = 1e5
		rate    = 4000 // req/s: 2x capacity; the load meets the cap at ratio 4/9
	)
	s, err := New(Config{Workers: 2, QueueLimit: 8192, WavePeriod: period, MinPeriod: floor})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	// One idle arrival: its early wave measures, and the pacer retimes from
	// the nominal period to the floor before the step begins.
	tk, err := s.Submit(cheapRequest)
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()
	for deadline := time.Now().Add(time.Second); s.PacePeriod() != floor; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) { // the retime follows the ticket's resolution by a few instructions
			t.Fatalf("cadence %v before the step, want the %v floor", s.PacePeriod(), floor)
		}
	}

	req := Request{Significance: 0.5, Handler: func() {}, Degraded: func() {}, CostAccurate: costAcc, CostDegraded: costDeg}
	start := time.Now()
	bound := adapt.ShedBoundSeconds(1, adapt.DefaultMaxStep, floor) // deltaR: the whole commanded range
	sent := 0
	for s.Ratio() > 0.5 {
		el := time.Since(start)
		if el > 4*bound {
			t.Fatalf("ratio still %.3f after %v (bound %v)", s.Ratio(), el, bound)
		}
		for due := int(el.Seconds() * rate); sent <= due; sent++ {
			if _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	shed := time.Since(start)
	if p := max(s.PacePeriod(), s.MeasuredPeriod()); p > floor {
		bound = adapt.ShedBoundSeconds(1, adapt.DefaultMaxStep, p)
	}
	tot := s.Totals()
	t.Logf("shed to ratio %.3f in %v (bound %v), %d waves of which %d early", s.Ratio(), shed, bound, tot.Waves, tot.EarlyWaves)
	if shed > bound {
		t.Fatalf("step overload shed in %v, bound %v", shed, bound)
	}
	if timed := tot.Waves - tot.EarlyWaves; timed > int64(adapt.ShedBound(1, adapt.DefaultMaxStep)) {
		t.Fatalf("%d cadence waves to shed, bound %d", timed, adapt.ShedBound(1, adapt.DefaultMaxStep))
	}
}

// simulatePump runs Start's pump loop (pacer.run) in fake time over evenly
// spaced arrivals (one every gap, built by mk). Its wait stands in for the
// timer: it submits each arrival due before the delay runs out, then
// advances the clock to the timer — or returns early on a wake token when
// wake is set (the pump without it is the timer alone). It returns the mean
// Load() over `waves` waves, after a warm-up that lets the cadence settle,
// and how many waves, warm-up included, ended with a live shard count other
// than the previous wave's.
func simulatePump(t *testing.T, s *Server, fc *FakeClock, gap time.Duration, mk func() Request, wake bool, waves int) (load float64, resized int) {
	t.Helper()
	const warmup = 50
	epoch := fc.Now()
	arrivals, n := 0, 0
	live := s.fleet.Live()
	var sum float64
	wait := func(delay time.Duration) (early, ok bool) {
		if n == warmup+waves {
			return false, false
		}
		timerAt := fc.Now().Add(delay)
		for {
			select {
			case <-s.pace.wake:
				if wake {
					return true, true
				}
			default:
			}
			next := epoch.Add(time.Duration(arrivals+1) * gap)
			if !next.Before(timerAt) {
				fc.Advance(timerAt.Sub(fc.Now()))
				return false, true
			}
			fc.Advance(next.Sub(fc.Now())) // a no-op for an arrival that came due during a wave
			if _, err := s.Submit(mk()); err != nil {
				t.Fatal(err)
			}
			arrivals++
		}
	}
	s.pace.run(wait, func(early bool) time.Duration {
		rep := s.runWave(early)
		if rep.LiveShards != live {
			live = rep.LiveShards
			resized++
		}
		if n++; n > warmup {
			sum += s.Load()
		}
		return rep.Next
	})
	return sum / float64(waves), resized
}

// TestServeLoadSignalHonest: the load signal must mean the same thing —
// modeled demand over modeled capacity across a period — whether waves fire
// on the cadence or early. One worker, one request every 25 µs (ten to a
// cadence floor, so the cadence pump is not at the mercy of whole-request
// rounding) costing 30/60/90 % of that: both pumps must read the offered
// fraction, and each other, to within a tenth. (With the wake alone and the
// full-period budget as every wave's denominator, the early pump reads
// gap/period of it.)
func TestServeLoadSignalHonest(t *testing.T) {
	const gap = 25 * time.Microsecond
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		cost := time.Duration(frac * float64(gap))
		var got [2]float64
		for i, wake := range []bool{false, true} {
			// MinRatio 1 pins the ratio, so every sample is priced alike and
			// the idle-arrival condition holds throughout.
			s, fc := newPaceServer(t, func(c *Config) { c.MinRatio = 1 })
			got[i], _ = simulatePump(t, s, fc, gap, func() Request { return paceRequest(fc, cost) }, wake, 200)
			early := s.Totals().EarlyWaves
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if wake == (early == 0) {
				t.Fatalf("offered %.0f%%, wake=%v: %d early waves", 100*frac, wake, early)
			}
			if math.Abs(got[i]-frac) > 0.1*frac {
				t.Errorf("offered %.0f%%, wake=%v: mean Load() %.3f over 200 waves", 100*frac, wake, got[i])
			}
		}
		t.Logf("offered %.0f%%: cadence pump reads %.3f, early pump %.3f", 100*frac, got[0], got[1])
		if math.Abs(got[0]-got[1]) > 0.1*got[0] {
			t.Errorf("offered %.0f%%: cadence pump reads %.3f, early pump %.3f", 100*frac, got[0], got[1])
		}
	}
}

// TestServeEarlyWavesDoNotScaleDown: an autoscaled fleet at 60 % of its
// capacity sits between the scaler's thresholds and must stay put. Early
// waves priced against the full-period budget read a fraction of that, fall
// under DownAt, and drain a shard the load then needs back.
func TestServeEarlyWavesDoNotScaleDown(t *testing.T) {
	const gap = 125 * time.Microsecond
	s, fc := newPaceServer(t, func(c *Config) {
		c.Shards = 2 // × Workers 1
		c.MinRatio = 1
		c.AutoScale = &shard.AutoscalerConfig{MinShards: 1, MaxShards: 4}
	})
	defer s.Close()
	cost := time.Duration(0.6 * 2 * float64(gap))
	mk := func() Request {
		r := paceRequest(fc, cost)
		r.Handler = func() { fc.Advance(cost / 2) } // two workers share the wall
		return r
	}
	load, resized := simulatePump(t, s, fc, gap, mk, true, 200)
	if math.Abs(load-0.6) > 0.06 {
		t.Errorf("mean Load() %.3f at 60%% of the fleet's capacity", load)
	}
	if resized != 0 {
		t.Fatalf("steady 60%% load resized the fleet on %d waves", resized)
	}
	if s.Totals().EarlyWaves == 0 {
		t.Fatal("no early wave fired; the test exercised the cadence only")
	}
}
