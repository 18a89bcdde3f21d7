package serve

import (
	"math"
	"testing"
	"time"

	"repro/sig/adapt"
)

// cheapRequest is a premium request too small to load any test server: it
// exercises the pump without ever moving the ratio off 1.0.
var cheapRequest = Request{Significance: 1.0, Handler: func() {}, CostAccurate: 1000}

// TestServeIdleArrivalFiresWave: at ratio 1.0 the arrival that ends an idle
// spell does not wait the cadence out — its wave fires at once and is
// counted as early. Start's real pump on a cadence far longer than the test
// waits (first tick at 1 s, floor 250 ms): what resolves quickly was
// resolved by an early wave, not by the timer.
func TestServeIdleArrivalFiresWave(t *testing.T) {
	s := newTestServer(t, 8, func(c *Config) { c.WavePeriod, c.MinPeriod = time.Second, 250*time.Millisecond })
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
// wave the moment the pump next waits. (A token posted after admission stays:
// TestServeFakeTimeWake's "token during a wave".)
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
}

// TestServeSheddingKeepsCadence: while the ratio is below 1.0 the cadence is
// the batching window that ranks significance, so an arrival into an empty
// queue before the wave is due posts no token and waits for the wave to come
// due. In fake time at ratio 0.5: a request at 0.5 ms is admitted by the
// timer's cadence wave at the 1 ms due time.
func TestServeSheddingKeepsCadence(t *testing.T) {
	s, fc := newPaceServer(t, nil)
	defer s.Close()
	s.grp.SetRatio(0.5)
	ws := runPump(t, s, fc, arriveAt(500*time.Microsecond), func(int) Request { return paceRequest(fc, time.Microsecond) }, 0, false, 1)
	if w := ws[0]; w.token || w.early || w.start != time.Unix(0, int64(time.Millisecond)) || w.admitted != 1 {
		t.Fatalf("wave %+v, want the timer's cadence wave at 1ms admitting the request", w)
	}
}

// TestServeDueArrivalFiresWave: an arrival that finds its wave due fires it,
// whatever the ratio, instead of waiting out the pump's timer. In fake time
// at ratio 0.5, the first wave is due 1 ms after New; the pump starts once
// that has passed, so its timer is a full cadence out, at 2 ms, and an
// arrival at 1.5 ms must fire its wave then. The wave starts past its due
// time, so it is a cadence wave, not an early one.
func TestServeDueArrivalFiresWave(t *testing.T) {
	s, fc := newPaceServer(t, nil)
	defer s.Close()
	s.grp.SetRatio(0.5)
	fc.Advance(time.Millisecond)
	ws := runPump(t, s, fc, arriveAt(1500*time.Microsecond), func(int) Request { return paceRequest(fc, time.Microsecond) }, 0, false, 1)
	if w := ws[0]; !w.token || w.early || w.start != time.Unix(0, int64(1500*time.Microsecond)) || w.admitted != 1 {
		t.Fatalf("wave %+v, want the arrival's token to fire a cadence wave at 1.5ms", w)
	}
}

// arriveAt is a runPump arrival script of one request at d past the epoch
// (the rest an hour apart, past any test's last wave).
func arriveAt(d time.Duration) func(i int) time.Time {
	return func(i int) time.Time { return time.Unix(0, int64(d+time.Duration(i)*time.Hour)) }
}

// TestServeStepOverloadShedsWithinBound drives a step from idle to 2x
// modeled capacity through the pump loop in fake time and holds the time to
// shed against adapt.ShedBound priced at the period in force. Early waves
// fire only until the first sample over the cap drops the ratio, so they can
// bring detection forward but never delay it. One worker; one idle arrival
// first, whose early wave measures and retimes the cadence to its 250 µs
// floor; from the step on, one request every 25 µs costing 50 µs accurate
// and 5 µs degraded, so the load meets the cap at ratio 4/9.
func TestServeStepOverloadShedsWithinBound(t *testing.T) {
	const gap = 25 * time.Microsecond
	s, fc := newPaceServer(t, nil)
	defer s.Close()
	step := time.Unix(0, int64(time.Millisecond))
	at := func(i int) time.Time {
		if i == 0 {
			return time.Unix(0, 0)
		}
		return step.Add(time.Duration(i-1) * gap)
	}
	mk := func(i int) Request {
		if i == 0 {
			return paceRequest(fc, time.Microsecond)
		}
		r := paceRequest(fc, 2*gap)
		r.Significance, r.Degraded, r.CostDegraded = 0.5, func() { fc.Advance(gap / 5) }, float64(gap/5)
		return r
	}
	shedWaves := adapt.ShedBound(1) // deltaR: the whole commanded range
	ws := runPump(t, s, fc, at, mk, 0, false, 8*shedWaves)
	timed, period := 0, time.Duration(0)
	for _, w := range ws {
		if w.start.Before(step) {
			continue
		}
		if floor := time.Duration(s.pace.lo); period == 0 && w.cadence != floor {
			t.Fatalf("cadence %v at the step, want the %v floor", w.cadence, floor)
		}
		if period = max(period, w.cadence); !w.early {
			timed++
		}
		if w.ratio <= 0.5 {
			shed, bound := w.end.Sub(step), time.Duration(shedWaves)*period
			t.Logf("shed to ratio %.3f in %v (bound %v), %d cadence waves", w.ratio, shed, bound, timed)
			if shed > bound {
				t.Fatalf("step overload shed in %v, bound %v", shed, bound)
			}
			if timed > shedWaves {
				t.Fatalf("%d cadence waves to shed, bound %d", timed, shedWaves)
			}
			return
		}
	}
	t.Fatalf("ratio still over 0.5 after %d waves", len(ws))
}

// pumpWave is one wave runPump fired: when it started and ended, the
// cadence in force as it started, whether a token fired it and whether it
// was counted early, what it admitted, and Load() and Ratio() after it.
type pumpWave struct {
	start, end   time.Time
	cadence      time.Duration
	token, early bool
	admitted     int
	load, ratio  float64
}

// runPump runs the package's pump in fake time (FakeClock.Run) for n waves,
// on a look that submits every scripted arrival at or before fc's instant —
// those that came due during a wave at the wave's end — and arms the timer
// at wakeAt, or late after it for a timer that fires late. arrival(i) is
// when the i-th scripted arrival comes and mk(i) its request. A deaf pump
// drains every token and ignores it: the timer alone. Every return of the
// wait must fire a wave: a look at the instant of the one before it, with no
// wave between, is a wait that returned without one.
func runPump(t *testing.T, s *Server, fc *FakeClock, arrival func(i int) time.Time, mk func(i int) Request, late time.Duration, deaf bool, n int) []pumpWave {
	t.Helper()
	var waves []pumpWave
	var w pumpWave                      // the wave a return of this look fires
	i, looked, early := 0, -1, int64(0) // looked: len(waves) at the last look; early: earlyWaves then
	fc.Run(s, func(wakeAt time.Time) (time.Time, bool) {
		if len(waves) == looked && fc.Now().Equal(w.start) {
			t.Fatalf("the pump waited again at %v without firing a wave", fc.Now())
		}
		if looked = len(waves); looked == n {
			return time.Time{}, false
		}
		for ; !arrival(i).After(fc.Now()); i++ {
			if _, err := s.Submit(mk(i)); err != nil {
				t.Fatal(err)
			}
		}
		if deaf {
			s.pace.spend()
		}
		w, early = pumpWave{start: fc.Now(), cadence: s.PacePeriod(), token: len(s.pace.wake) > 0}, s.pace.earlyWaves.Load()
		if timer := wakeAt.Add(late); timer.Before(arrival(i)) {
			return timer, true
		}
		return arrival(i), true
	}, func(rep WaveReport) {
		w.end, w.early, w.admitted, w.load, w.ratio = w.start.Add(rep.WallTime), s.pace.earlyWaves.Load() > early, rep.Admitted, rep.Control.Measure, s.Ratio()
		waves = append(waves, w)
	})
	return waves
}

// pumpRun is what simulatePump reads over the waves it measures, after a
// warm-up that lets the cadence settle.
type pumpRun struct {
	load   float64 // mean Load()
	early  int     // waves counted in Totals.EarlyWaves
	tokens int     // waves a wake token fired
	short  int     // waves that started less than a cadence after the one before
}

// simulatePump runs the pump in fake time (runPump) over evenly spaced
// arrivals, one every gap built by mk, and reads waves waves after a
// warm-up; without wake the pump is deaf to tokens.
func simulatePump(t *testing.T, s *Server, fc *FakeClock, gap time.Duration, mk func() Request, wake bool, late time.Duration, waves int) (run pumpRun) {
	t.Helper()
	const warmup = 50
	epoch := fc.Now()
	at := func(i int) time.Time { return epoch.Add(time.Duration(i+1) * gap) }
	ws := runPump(t, s, fc, at, func(int) Request { return mk() }, late, !wake, warmup+waves)
	for i := warmup; i < len(ws); i++ {
		run.load += ws[i].load
		if ws[i].early {
			run.early++
		}
		if ws[i].token {
			run.tokens++
		}
		if ws[i].start.Sub(ws[i-1].start) < ws[i].cadence {
			run.short++
		}
	}
	run.load /= float64(waves)
	return run
}

// TestServeFakeTimeWake pins the fake-time wait every pump test runs the
// production loop on, one edge a row. The server's first wave is due at 1 ms,
// and the first request's body submits a second one:
//   - arrival at wakeAt: an arrival exactly at the first wakeAt is queued
//     before the timer's wave fires, which admits it;
//   - token during a wave: the body's submit into the empty queue posts a
//     token that fires the next wave back-to-back, at the first one's end;
//   - timer before wakeAt: a timer that fires half a cadence early, as a
//     monotonic timer does when the wall clock steps back, still fires a
//     wave, a cadence wave, instead of the pump waiting again for wakeAt.
//
// That a late timer still fires cadence waves, never early ones, is
// TestServeDueWavesKeepCadence's.
func TestServeFakeTimeWake(t *testing.T) {
	for _, c := range []struct {
		name  string
		at    time.Duration // the first arrival, past the epoch
		late  time.Duration
		deaf  bool
		waves int
		holds func(ws []pumpWave) bool
	}{
		{"arrival at wakeAt", time.Millisecond, 0, true, 1,
			func(ws []pumpWave) bool {
				return ws[0].start == time.Unix(0, int64(time.Millisecond)) && ws[0].admitted == 1
			}},
		{"token during a wave", 0, 0, false, 2,
			func(ws []pumpWave) bool { return ws[1].token && ws[1].start == ws[0].end && ws[1].admitted == 1 }},
		{"timer before wakeAt", time.Hour, -500 * time.Microsecond, false, 1,
			func(ws []pumpWave) bool {
				return ws[0].start == time.Unix(0, int64(500*time.Microsecond)) && !ws[0].token && !ws[0].early
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, fc := newPaceServer(t, nil)
			defer s.Close()
			mk := func(i int) Request {
				r := paceRequest(fc, 10*time.Microsecond)
				if i == 0 {
					r.Handler = func() {
						fc.Advance(10 * time.Microsecond)
						_, _ = s.Submit(paceRequest(fc, 10*time.Microsecond)) // a refusal shows as the next wave admitting nothing
					}
				}
				return r
			}
			ws := runPump(t, s, fc, arriveAt(c.at), mk, c.late, c.deaf, c.waves)
			if !c.holds(ws) {
				t.Fatalf("waves %+v", ws)
			}
		})
	}
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
// tenth — which the late timer alone, itself never early or short, does not.
// One worker, one request every 25 µs costing 60 % of that, a degraded
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
	for _, r := range []pumpRun{lateTimer, due} { // a late timer, deaf or not, still fires cadence waves
		if r.short != 0 || r.early != 0 {
			t.Fatalf("%d waves started less than a cadence after the one before, %d counted early; want none", r.short, r.early)
		}
	}
	if math.Abs(due.load-onTime.load) > 0.1*onTime.load {
		t.Errorf("due arrivals read Load() %.3f, an on-time timer %.3f", due.load, onTime.load)
	}
	if math.Abs(lateTimer.load-onTime.load) <= 0.1*onTime.load {
		t.Errorf("the late timer alone reads Load() %.3f, within a tenth of the on-time timer's %.3f: the test cannot tell the rule from the timer", lateTimer.load, onTime.load)
	}
}
