package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
)

// Deadline and retry-after suite. Companion to
// TestServeDroppedRequestsCostZeroJoules: the timed-out outcome is the
// third way a request resolves without running, and like the other two it
// must model zero joules.

// TestServeExpiredAtSubmit: a request already past its deadline is
// rejected before it touches the queue — typed sentinel, timed-out
// accounting, zero modeled joules.
func TestServeExpiredAtSubmit(t *testing.T) {
	s := newTestServer(t, 8, nil)
	defer s.Close()
	var served [3]atomic.Int64

	req := request(0, &served)
	fc := fakeClock(s)
	req.Deadline = fc.Now()
	fc.Advance(time.Second)
	tk, err := s.Submit(req)
	if !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("expired Submit: got %v, want ErrDeadlineExpired", err)
	}
	if tk != nil {
		t.Fatal("expired Submit returned a ticket")
	}
	rep := s.RunWave()
	if rep.Admitted != 0 || rep.TimedOut != 0 {
		t.Fatalf("rejected request leaked into a wave: %+v", rep)
	}
	tot := s.Totals()
	if tot.Submitted != 1 || tot.Rejected != 1 || tot.TimedOut != 1 || tot.Completed != 0 {
		t.Fatalf("totals %+v, want 1 submitted/rejected/timed-out", tot)
	}
	if served[0].Load()+served[1].Load() != 0 {
		t.Fatal("a handler ran for an expired request")
	}
	if got := s.Energy().Joules; got != 0 {
		t.Fatalf("expired request modeled %v J, want 0", got)
	}
}

// TestServeQueuedDeadlineTimesOut: a request that expires while queued is
// resolved OutcomeTimedOut at the next wave — completion edge, ticket
// lifecycle and zero joules all intact — while fresh requests in the same
// wave are served normally.
func TestServeQueuedDeadlineTimesOut(t *testing.T) {
	s := newTestServer(t, 8, nil)
	defer s.Close()
	var served [3]atomic.Int64

	doomed := request(0, &served)
	fc := fakeClock(s)
	doomed.Deadline = fc.Now().Add(2 * time.Millisecond)
	dtk, err := s.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	ltk, err := s.Submit(request(1, &served)) // no deadline
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Millisecond) // let the deadline lapse in-queue

	rep := s.RunWave()
	if rep.TimedOut != 1 {
		t.Fatalf("wave timed out %d requests, want 1 (%+v)", rep.TimedOut, rep)
	}
	if rep.Admitted != 1 {
		t.Fatalf("wave admitted %d, want the one live request", rep.Admitted)
	}
	if got := dtk.Wait(); got != OutcomeTimedOut {
		t.Fatalf("doomed ticket outcome %v, want %v", got, OutcomeTimedOut)
	}
	if got := dtk.WaveLatency(); got != 1 {
		t.Errorf("timed-out ticket wave latency %d, want 1", got)
	}
	if got := ltk.Wait(); got != OutcomeAccurate {
		t.Fatalf("live ticket outcome %v, want accurate", got)
	}
	dtk.Release()
	ltk.Release()

	tot := s.Totals()
	if tot.Submitted != 2 || tot.Completed != 2 || tot.TimedOut != 1 || tot.Rejected != 0 {
		t.Fatalf("totals %+v, want 2 submitted, 2 completed, 1 timed out", tot)
	}
	// Only the surviving request's accurate handler may be charged.
	want := sig.DefaultActiveWatts * costAcc * 1e-9
	if got := s.Energy().Joules; got != want {
		t.Fatalf("joules %v, want %v (timed-out request must cost zero)", got, want)
	}
	if served[0].Load() != 1 || served[1].Load() != 0 {
		t.Fatalf("bodies ran %d/%d, want 1/0", served[0].Load(), served[1].Load())
	}
}

// TestServeOverloadErrorRetryAfter: queue-full rejections carry a backoff
// hint proportional to the backlog and still satisfy
// errors.Is(err, ErrQueueFull).
func TestServeOverloadErrorRetryAfter(t *testing.T) {
	s := newTestServer(t, 2, func(c *Config) { c.QueueLimit = 4 })
	defer s.Close()
	var served [3]atomic.Int64
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(request(i, &served)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(request(4, &served))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit: got %v, want ErrQueueFull via errors.Is", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow Submit error %T is not *OverloadError", err)
	}
	// Backlog = 4×costAcc at ratio 1; budget fits 2/0.6 ≈ 3.3 accurate
	// requests per wave → 2 waves to drain.
	if want := 2 * s.cfg.WavePeriod; oe.RetryAfter != want {
		t.Fatalf("RetryAfter %v, want %v", oe.RetryAfter, want)
	}
	if tot := s.Totals(); tot.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", tot.Rejected)
	}
}

// TestOutcomeTimedOutString covers the new outcome's formatting.
func TestOutcomeTimedOutString(t *testing.T) {
	if got := OutcomeTimedOut.String(); got != "timed-out" {
		t.Fatalf("OutcomeTimedOut.String() = %q", got)
	}
}
