package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// paceRequest is one deterministic measured-time test request: premium
// significance (never degraded, so cost arithmetic stays exact), declared
// cost d nanoseconds, and a handler that advances the fake clock by exactly
// that much — the wave's measured wall time is the sum of what it admitted.
func paceRequest(fc *FakeClock, d time.Duration) Request {
	return Request{
		Significance: 1.0,
		Handler:      func() { fc.Advance(d) },
		CostAccurate: float64(d),
	}
}

// newPaceServer builds a Workers=1 fake-clock server: one worker makes
// "measured period × workers" and "sum of admitted cost" the same
// quantity, so budget assertions are exact.
func newPaceServer(t *testing.T, mut func(*Config)) (*Server, *FakeClock) {
	t.Helper()
	fc := NewFakeClock()
	cfg := Config{
		Workers:    1,
		QueueLimit: 1024,
		WavePeriod: time.Millisecond,
		Clock:      fc,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, fc
}

// TestServeMeasuredPeriodEWMA pins the measured-time plumbing end to end:
// WaveReport.WallTime is the exact fake-clock advance of the wave, and
// MeasuredPeriod follows the deterministic integer EWMA
// (next = old + (sample-old)/4) sample by sample.
func TestServeMeasuredPeriodEWMA(t *testing.T) {
	s, fc := newPaceServer(t, func(c *Config) { c.WaveBudget = 1e9 })
	defer s.Close()

	if got := s.MeasuredPeriod(); got != s.cfg.WavePeriod {
		t.Fatalf("pre-measurement MeasuredPeriod %v, want configured %v", got, s.cfg.WavePeriod)
	}

	wave := func(d time.Duration) WaveReport {
		if _, err := s.Submit(paceRequest(fc, d)); err != nil {
			t.Fatal(err)
		}
		return s.RunWave()
	}

	if rep := wave(2 * time.Millisecond); rep.WallTime != 2*time.Millisecond {
		t.Fatalf("WallTime %v, want the wave's exact 2ms advance", rep.WallTime)
	}
	if got := s.MeasuredPeriod(); got != 2*time.Millisecond {
		t.Fatalf("first sample MeasuredPeriod %v, want 2ms", got)
	}
	// Step the true wall time up to 4ms: the EWMA must walk the exact
	// integer trajectory toward it.
	for _, want := range []time.Duration{2_500_000, 2_875_000, 3_156_250} {
		wave(4 * time.Millisecond)
		if got := s.MeasuredPeriod(); got != want {
			t.Fatalf("EWMA %v, want %v", got, want)
		}
	}
}

// TestServeRetryAfterMeasuredPeriod is the repricing regression: once a
// wave has measured longer than the configured WavePeriod, the queue-full
// backoff hint must be priced in measured-period units. Pre-fix code priced
// waves × cfg.WavePeriod and sent clients back into a still-full queue.
func TestServeRetryAfterMeasuredPeriod(t *testing.T) {
	const cost = 4 * time.Millisecond // one wave's true wall time: 4x the period
	s, fc := newPaceServer(t, func(c *Config) {
		c.QueueLimit = 4
		c.WaveBudget = float64(cost)
	})
	defer s.Close()

	// One explicit wave (no pump running) establishes the measurement.
	if _, err := s.Submit(paceRequest(fc, cost)); err != nil {
		t.Fatal(err)
	}
	if rep := s.RunWave(); rep.WallTime != cost {
		t.Fatalf("measured wave wall %v, want %v", rep.WallTime, cost)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(paceRequest(fc, cost)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(paceRequest(fc, cost))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("expected OverloadError from the full queue, got %v", err)
	}
	// Backlog = 4 requests of one budget each -> 4 waves, each honestly
	// worth the measured 4ms, not the configured 1ms.
	if want := 4 * s.MeasuredPeriod(); oe.RetryAfter != want {
		t.Fatalf("RetryAfter %v, want %v (4 waves at the measured period %v)",
			oe.RetryAfter, want, s.MeasuredPeriod())
	}
	if oe.RetryAfter < 4*cost {
		t.Fatalf("RetryAfter %v under-prices 4 overrunning waves of %v", oe.RetryAfter, cost)
	}
}

// TestServePacerCountsOverruns pins the tick-coalescing fix: a wave whose
// wall time outruns the cadence is counted (Totals.Overruns, the report's
// Overrun flag) and the next is due at once — one cadence out after an idle
// wave — and the wave count tracks every RunWave call: no tick coalesced.
func TestServePacerCountsOverruns(t *testing.T) {
	s, fc := newPaceServer(t, func(c *Config) { c.WaveBudget = 1e9 })
	defer s.Close()
	dueIn := func() time.Duration { // until the pump's timer (next's wakeAt); 0 if due
		_, _, wakeAt := s.pace.next(fc.Now(), false)
		return max(wakeAt.Sub(fc.Now()), 0)
	}

	// Wave 1 overruns: 4ms of work against the 1ms starting cadence.
	if _, err := s.Submit(paceRequest(fc, 4*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rep := s.RunWave()
	if !rep.Overrun || dueIn() != 0 {
		t.Fatalf("overrunning wave: Overrun=%v, next due in %v, want true/0", rep.Overrun, dueIn())
	}
	if got := s.Totals().Overruns; got != 1 {
		t.Fatalf("Overruns %d after one overrunning wave, want 1", got)
	}
	// The pacer retimed to the measured 4ms, so an identical wave now fits
	// its cadence: no overrun, and the pacer owes no extra delay.
	if got := s.PacePeriod(); got != 4*time.Millisecond {
		t.Fatalf("cadence %v after retime, want the measured 4ms", got)
	}
	if _, err := s.Submit(paceRequest(fc, 4*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rep = s.RunWave()
	if rep.Overrun || dueIn() != 0 {
		t.Fatalf("retimed wave: Overrun=%v, next due in %v, want false/0", rep.Overrun, dueIn())
	}
	// An empty wave underruns; the next is due one cadence after its start.
	rep = s.RunWave()
	if rep.Overrun || dueIn() != s.PacePeriod() {
		t.Fatalf("idle wave: Overrun=%v, next due in %v, want false/%v", rep.Overrun, dueIn(), s.PacePeriod())
	}
	if tot := s.Totals(); tot.Overruns != 1 || tot.Waves != 3 {
		t.Fatalf("totals Overruns=%d Waves=%d, want 1 and 3 (every RunWave counted)", tot.Overruns, tot.Waves)
	}
}

// TestServePacerBounds pins the cadence clamp: the EWMA may exceed the
// ceiling, but the pacer never paces outside [MinPeriod, 8×WavePeriod] —
// while RetryAfter keeps pricing with the unclamped, honest measurement.
func TestServePacerBounds(t *testing.T) {
	s, fc := newPaceServer(t, func(c *Config) {
		c.WaveBudget = 1e9
		c.WavePeriod = 250 * time.Microsecond
	})
	defer s.Close()
	if _, err := s.Submit(paceRequest(fc, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s.RunWave()
	if got := s.PacePeriod(); got != 2*time.Millisecond {
		t.Fatalf("cadence %v, want the 2ms ceiling (8 x the 250us WavePeriod)", got)
	}
	if got := s.MeasuredPeriod(); got != 40*time.Millisecond {
		t.Fatalf("MeasuredPeriod %v, want the unclamped 40ms", got)
	}
}

// TestServePacedBudgetTracksMeasured: a configured WaveBudget is only the
// first wave's guess — after a measured wave, capacity is re-derived as
// effective measured period × workers.
func TestServePacedBudgetTracksMeasured(t *testing.T) {
	s, fc := newPaceServer(t, func(c *Config) { c.WaveBudget = 1e6 })
	defer s.Close()
	if got := s.Budget(); got != 1e6 {
		t.Fatalf("initial budget %v, want the configured 1e6", got)
	}
	if _, err := s.Submit(paceRequest(fc, 4*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rep := s.RunWave()
	if want := 4e6; s.Budget() != want || rep.Budget != want {
		t.Fatalf("paced budget %v (report %v), want %v = measured 4ms x 1 worker",
			s.Budget(), rep.Budget, want)
	}
}

// TestServeDefaultBudget pins the one budget derivation: the default
// WaveBudget is workers × WavePeriod, and a frozen-clock wave's rebuild (the
// pacer's workers × period) reproduces exactly that number — no drift
// between withDefaults' basis and the rebuild's.
func TestServeDefaultBudget(t *testing.T) {
	const period = 2 * time.Millisecond
	for _, workers := range []int{1, 2, 4} {
		want := float64(workers) * float64(period.Nanoseconds())
		s, err := New(Config{Workers: workers, WavePeriod: period, MinPeriod: period, Clock: NewFakeClock()})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Budget(); got != want {
			t.Errorf("Workers %d: default budget %v, want %v", workers, got, want)
		}
		// The rebuild at a wave boundary must reproduce the same number.
		if rep := s.RunWave(); s.Budget() != want || rep.Budget != want {
			t.Errorf("Workers %d: budget %v (report %v) after the per-wave rebuild, want %v",
				workers, s.Budget(), rep.Budget, want)
		}
		s.Close()
	}
}

// TestServeNewErrorClosesRuntime: New builds its runtime before it prices the
// default budget, so a config it rejects after that point must not leave the
// runtime's workers behind.
func TestServeNewErrorClosesRuntime(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, cfg := range []Config{
		{Workers: 4, PriorityAt: 0.5, QueueLimit: 1},
		{Workers: 4, WavePeriod: time.Millisecond, MinPeriod: 2 * time.Millisecond},
	} {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Fatalf("New(%+v) accepted a config it must reject", cfg)
		}
	}
	noGoroutinesPast(t, base, "the rejected New calls")
}

// noGoroutinesPast fails t unless the goroutine count is back at base within
// two seconds: what outlives must have let every goroutine it started go.
func noGoroutinesPast(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines outlive %s (baseline %d)", got-base, what, base)
	}
}

// TestServeStartLifecycle covers the pump's edges: a second Start is a
// no-op on the same pump, Close stops it — no goroutine outlives Start and
// Close — and Start after Close spawns nothing.
func TestServeStartLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _ := newPaceServer(t, nil)
	pump := func() chan struct{} {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.pumpStop
	}
	s.Start()
	first := pump()
	if first == nil {
		t.Fatal("Start spawned no pump")
	}
	s.Start()
	if pump() != first {
		t.Fatal("double Start replaced the pump instead of no-opping")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if pump() != first {
		t.Fatal("Close must not clear the pump record it already joined")
	}
	noGoroutinesPast(t, base, "Start and Close")

	s2, _ := newPaceServer(t, nil)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	if pump := func() chan struct{} {
		s2.mu.Lock()
		defer s2.mu.Unlock()
		return s2.pumpStop
	}(); pump != nil {
		t.Fatal("Start after Close spawned a pump goroutine")
	}
}

// TestServeCloseDuringPacedWaveDrains: Close called while the real-clock
// pacer has a wave in flight must drain cleanly — every accepted ticket
// resolves, and no goroutine (pump, workers) outlives Close. The storm
// variant races Close against submitters that keep posting wake tokens: the
// send must never block a Submit, the pump must exit with a token still
// pending, and the drain must still resolve whatever was accepted.
func TestServeCloseDuringPacedWaveDrains(t *testing.T) {
	body := Request{
		Significance: 1.0,
		Handler:      func() { time.Sleep(time.Millisecond) },
		CostAccurate: float64(time.Millisecond),
	}
	t.Run("queued", func(t *testing.T) {
		closeUnderLoad(t, func(s *Server) func() []*Ticket {
			var tks []*Ticket
			for i := 0; i < 16; i++ {
				tk, err := s.Submit(body)
				if err != nil {
					t.Fatal(err)
				}
				tks = append(tks, tk)
			}
			// Let the pacer take at least one wave in flight before shutting down.
			for s.Totals().Waves == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			return func() []*Ticket { return tks }
		})
	})
	t.Run("submit storm", func(t *testing.T) {
		const submitters = 4
		var wg sync.WaitGroup
		accepted := make([][]*Ticket, submitters)
		closing := make(chan struct{})
		closeUnderLoad(t, func(s *Server) func() []*Ticket {
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						tk, err := s.Submit(cheapRequest) // never sheds: tokens need ratio 1.0
						if errors.Is(err, ErrClosed) {
							return
						}
						if err == nil {
							accepted[g] = append(accepted[g], tk)
							// Waiting out every ticket keeps the queue draining to
							// empty, so most Submits are the idle arrival that
							// posts a token.
							select {
							case <-tk.Done():
							case <-closing:
							}
						}
					}
				}(g)
			}
			// Bounded, so a pacer that never counts an early wave fails here
			// instead of growing accepted until memory runs out.
			for deadline := time.Now().Add(10 * time.Second); s.Totals().EarlyWaves < 8; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Errorf("EarlyWaves=%d after 10s of idle arrivals at ratio 1.0, want 8", s.Totals().EarlyWaves)
					break
				}
			}
			close(closing)
			return func() []*Ticket {
				wg.Wait() // every submitter saw ErrClosed: none is parked on the wake send
				var all []*Ticket
				for _, tks := range accepted {
					all = append(all, tks...)
				}
				return all
			}
		})
	})
}

// closeUnderLoad starts a real-clock pump, lets load put it to work, calls
// Close and checks the shutdown contract: every accepted ticket (what load's
// returned func reports once Close is back) is resolved, the counters
// conserve, and the goroutine count returns to its baseline.
func closeUnderLoad(t *testing.T, load func(*Server) func() []*Ticket) {
	base := runtime.NumGoroutine()
	s, err := New(Config{
		Workers:    2,
		QueueLimit: 1024,
		WavePeriod: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	accepted := load(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tks := accepted()
	for i, tk := range tks {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %d unresolved after Close", i)
		}
	}
	if tot := s.Totals(); tot.Completed != int64(len(tks)) || tot.Submitted != tot.Completed+tot.Rejected {
		t.Fatalf("%d accepted tickets, totals %+v", len(tks), tot)
	}
	noGoroutinesPast(t, base, "Close") // the pump and the engine workers
}
