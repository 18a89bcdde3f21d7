package serve

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig/adapt"
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

// TestServeWaveSpendsWakeToken: the token an idle arrival posts is spent by
// the wave that admits its request; left behind, it would fire a spare early
// wave the moment the pump next waits. A request a body submits during its
// own wave arrives after admission, so its token stays and the next wave
// follows back-to-back — how batches grow with load.
func TestServeWaveSpendsWakeToken(t *testing.T) {
	s, fc := newPaceServer(t, func(c *Config) { c.MinRatio = 1 })
	defer s.Close()
	if _, err := s.Submit(paceRequest(fc, 100*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.pace.wake); n != 1 {
		t.Fatalf("%d tokens after an idle arrival at ratio 1.0, want 1", n)
	}
	s.RunWave()
	if n := len(s.pace.wake); n != 0 {
		t.Fatalf("%d tokens after the wave that admitted the arrival, want 0", n)
	}

	inner := make(chan error, 1)
	if _, err := s.Submit(Request{Significance: 1, CostAccurate: 1000, Handler: func() {
		_, err := s.Submit(paceRequest(fc, 100*time.Microsecond))
		inner <- err
	}}); err != nil {
		t.Fatal(err)
	}
	s.RunWave()
	if err := <-inner; err != nil {
		t.Fatal(err)
	}
	if n, d := len(s.pace.wake), s.Depth(); n != 1 || d != 1 {
		t.Fatalf("%d tokens and %d queued after a body submitted during its wave, want 1 and 1", n, d)
	}
	if rep := s.RunWave(); rep.Admitted != 1 || len(s.pace.wake) != 0 {
		t.Fatalf("next wave admitted %d and left %d tokens, want 1 and 0", rep.Admitted, len(s.pace.wake))
	}
}

// sheddingPump is slowPump after a sustained overload through explicit
// waves, drained so the queue is momentarily empty: the ratio is below 1.0,
// the cadence is at its 250 ms floor, and the next wave is due one cadence
// after the last drain wave started. It returns the index of the next
// request.
func sheddingPump(t *testing.T, served *[3]atomic.Int64) (*Server, int) {
	s := slowPump(t)
	// The first wave retimes the cadence to its 250 ms floor, 5e8 cost units
	// over two workers: costs 1250x request's keep newTestServer's 2.4x
	// overload.
	seq := 0
	for w := 0; w < 6; w++ {
		for i := 0; i < 32; i++ {
			req := request(seq, served)
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
	return s, seq
}

// TestServeSheddingKeepsCadence: while the ratio is below 1.0 the cadence is
// the batching window that ranks significance, so an arrival into a
// momentarily empty queue before the wave is due posts no token and waits
// for the wave to come due.
func TestServeSheddingKeepsCadence(t *testing.T) {
	var served [3]atomic.Int64
	s, seq := sheddingPump(t, &served)
	s.Start()
	tk, err := s.Submit(request(seq, &served))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
		t.Fatal("a wave fired before it was due while the server was shedding")
	case <-time.After(50 * time.Millisecond):
	}
	if tot := s.Totals(); tot.EarlyWaves != 0 || len(s.pace.wake) != 0 {
		t.Fatalf("EarlyWaves=%d pending tokens=%d, want no token before the wave is due", tot.EarlyWaves, len(s.pace.wake))
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

// TestServeDueArrivalFiresWave: an arrival that finds its wave due fires it,
// whatever the ratio, instead of waiting out the pump's timer. The shedding
// server's next wave is due 250 ms after its last drain wave; once that has
// passed, Start arms the fallback timer a full cadence out, and an arrival
// must resolve long before it fires. Its wave starts past its due time, so
// it is a cadence wave, not an early one.
func TestServeDueArrivalFiresWave(t *testing.T) {
	var served [3]atomic.Int64
	s, seq := sheddingPump(t, &served)
	defer s.Close()
	time.Sleep(time.Until(time.Unix(0, s.pace.due.Load())))
	s.Start()
	tk, err := s.Submit(request(seq, &served))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(50 * time.Millisecond):
		t.Fatal("an arrival past the due time still queued after 50ms of a 250ms fallback timer: it did not fire its wave")
	}
	// The wave counted itself as it began, before it admitted the request.
	if n := s.Totals().EarlyWaves; n != 0 {
		t.Fatalf("EarlyWaves=%d, want 0: a wave fired at its due time is a cadence wave", n)
	}
}

// TestServeStepOverloadShedsWithinBound drives a step from idle to 2x
// modeled capacity through the real pump and holds the time to shed against
// adapt.ShedBound priced at the period in force. Early waves fire
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
	shedWaves := adapt.ShedBound(1) // deltaR: the whole commanded range
	start := time.Now()
	bound := time.Duration(shedWaves) * floor
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
		bound = time.Duration(shedWaves) * p
	}
	tot := s.Totals()
	t.Logf("shed to ratio %.3f in %v (bound %v), %d waves of which %d early", s.Ratio(), shed, bound, tot.Waves, tot.EarlyWaves)
	if shed > bound {
		t.Fatalf("step overload shed in %v, bound %v", shed, bound)
	}
	if timed := tot.Waves - tot.EarlyWaves; timed > int64(shedWaves) {
		t.Fatalf("%d cadence waves to shed, bound %d", timed, shedWaves)
	}
}

// pumpRun is what simulatePump reads over the waves it measures, after a
// warm-up that lets the cadence settle.
type pumpRun struct {
	load   float64 // mean Load()
	early  int     // waves counted in Totals.EarlyWaves
	tokens int     // waves a wake token fired
	short  int     // waves that started less than a cadence after the one before
}

// simulatePump runs Start's pump loop (pacer.run) in fake time over evenly
// spaced arrivals (one every gap, built by mk). Its wait stands in for the
// timer, which fires late after the delay it is armed with: it submits each
// arrival due before the timer fires, then advances the clock to the timer
// — or, when wake is set, returns on any token, an idle arrival's or a due
// one's (the pump without it is the timer alone).
func simulatePump(t *testing.T, s *Server, fc *FakeClock, gap time.Duration, mk func() Request, wake bool, late time.Duration, waves int) (run pumpRun) {
	t.Helper()
	const warmup = 50
	epoch := fc.Now()
	arrivals, n := 0, 0
	var prevStart time.Time
	wait := func(delay time.Duration) (token, ok bool) {
		if n == warmup+waves {
			return false, false
		}
		timerAt := fc.Now().Add(delay + late)
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
	s.pace.run(wait, func(token bool) time.Duration {
		start, cadence, early := fc.Now(), s.PacePeriod(), s.pace.earlyWaves.Load()
		rep := s.runWave(token)
		if n++; n > warmup {
			run.load += s.Load()
			run.early += int(s.pace.earlyWaves.Load() - early)
			if token {
				run.tokens++
			}
			if start.Sub(prevStart) < cadence {
				run.short++
			}
		}
		prevStart = start
		return rep.Next
	})
	run.load /= float64(waves)
	return run
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
			got[i] = simulatePump(t, s, fc, gap, func() Request { return paceRequest(fc, cost) }, wake, 0, 200).load
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

// TestServeEarlyWavesReadFleetLoad: a 2-worker server at 60 % of its
// capacity must read 60 % load while early waves fire. Early waves priced
// against the full-period budget would read a fraction of that, and a wave
// priced without its workers factor would read twice it.
func TestServeEarlyWavesReadFleetLoad(t *testing.T) {
	const gap = 125 * time.Microsecond
	s, fc := newPaceServer(t, func(c *Config) {
		c.Workers = 2
		c.MinRatio = 1
	})
	defer s.Close()
	cost := time.Duration(0.6 * 2 * float64(gap))
	mk := func() Request {
		r := paceRequest(fc, cost)
		r.Handler = func() { fc.Advance(cost / 2) } // two workers share the wall
		return r
	}
	run := simulatePump(t, s, fc, gap, mk, true, 0, 200)
	if math.Abs(run.load-0.6) > 0.06 {
		t.Errorf("mean Load() %.3f at 60%% of the server's capacity", run.load)
	}
	if s.Totals().EarlyWaves == 0 {
		t.Fatal("no early wave fired; the test exercised the cadence only")
	}
}

// TestServeDueWavesKeepCadence: at ratio < 1 no idle arrival fires a wave,
// so every token is a due one. In fake time, under a timer that fires half a
// cadence late, the arrivals that find their wave due must fire the waves —
// never two less than a cadence apart, none counted early — and the load
// signal must read what a pump with an on-time timer reads, to within a
// tenth — which the late timer alone does not. One worker, one request every 25 µs costing 60 % of that, a degraded
// body as dear as the accurate one: the load cannot fall under the 0.5 cap,
// so the ratio sits at its 0.5 floor.
func TestServeDueWavesKeepCadence(t *testing.T) {
	const (
		gap  = 25 * time.Microsecond
		cost = 15 * time.Microsecond
	)
	pump := func(wake bool, late time.Duration) pumpRun {
		s, fc := newPaceServer(t, func(c *Config) { c.TargetLoad, c.MinRatio = 0.5, 0.5 })
		defer s.Close()
		mk := func() Request {
			r := paceRequest(fc, cost)
			r.Significance, r.Degraded, r.CostDegraded = 0.5, r.Handler, r.CostAccurate
			return r
		}
		run := simulatePump(t, s, fc, gap, mk, wake, late, 200)
		if r := s.Ratio(); r >= 1 {
			t.Fatalf("ratio %v: the test needs a shedding server", r)
		}
		return run
	}
	onTime := pump(false, 0)
	late := 125 * time.Microsecond // half the 250 µs cadence floor
	lateTimer := pump(false, late)
	due := pump(true, late)
	t.Logf("mean Load(): on-time timer %.3f, late timer %.3f, late timer with due arrivals %.3f (%d of 200 waves token-fired)",
		onTime.load, lateTimer.load, due.load, due.tokens)
	if due.tokens == 0 {
		t.Fatal("no due arrival fired a wave; the test exercised the timer only")
	}
	if due.short != 0 || due.early != 0 {
		t.Fatalf("%d waves started less than a cadence after the one before, %d counted early; want none", due.short, due.early)
	}
	if math.Abs(due.load-onTime.load) > 0.1*onTime.load {
		t.Errorf("due arrivals read Load() %.3f, an on-time timer %.3f", due.load, onTime.load)
	}
	if math.Abs(lateTimer.load-onTime.load) <= 0.1*onTime.load {
		t.Errorf("the late timer alone reads Load() %.3f, within a tenth of the on-time timer's %.3f: the test cannot tell the rule from the timer", lateTimer.load, onTime.load)
	}
}
