package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/shard"
)

// Deadline, retry-after and autoscale suite. Companion to
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

// TestServeAutoScale drives a sharded server through a load step and back
// and asserts the fleet followed: growth to MaxShards under sustained
// overload, shrink toward MinShards when idle, wave budget tracking the
// live shard count, and LiveShards reported on every wave.
func TestServeAutoScale(t *testing.T) {
	const base = 8
	s := newTestServer(t, base, func(c *Config) {
		c.Shards = 2
		c.Workers = 1
		// Full-quality contract: degradation cannot absorb the step, so the
		// load signal stays pinned above UpAt until capacity (shards) grows
		// — the regime autoscaling exists for.
		c.MinRatio = 1
		c.AutoScale = &shard.AutoscalerConfig{
			MinShards: 1, MaxShards: 4,
			UpAt: 1.5, DownAt: 0.2,
			UpAfter: 2, DownAfter: 3, Cooldown: 1,
		}
	})
	defer s.Close()
	if s.Fleet() == nil {
		t.Fatal("sharded server has no fleet accessor")
	}
	if got := s.Fleet().Shards(); got != 4 {
		t.Fatalf("slot capacity %d, want MaxShards 4", got)
	}

	var served [3]atomic.Int64
	// Sustained 6x overload: the controller degrades, the load signal
	// stays pinned above UpAt, the scaler grows the fleet to its cap.
	maxLive := 0
	for w := 0; w < 12; w++ {
		for i := 0; i < 6*base; i++ {
			if _, err := s.Submit(request(i, &served)); err != nil {
				t.Fatal(err)
			}
		}
		rep := s.RunWave()
		if rep.LiveShards > maxLive {
			maxLive = rep.LiveShards
		}
	}
	if maxLive != 4 {
		t.Fatalf("overload grew the fleet to %d shards, want 4", maxLive)
	}
	// One worker × the frozen cadence is each live shard's share.
	perShard := float64(s.cfg.MinPeriod)
	s.mu.Lock()
	budget := s.budget
	s.mu.Unlock()
	if want := perShard * 4; budget != want {
		t.Fatalf("budget %v after growth, want %v (per-shard × live)", budget, want)
	}

	// Idle waves: the scaler shrinks back to MinShards.
	last := 0
	for w := 0; w < 40 && last != 1; w++ {
		last = s.RunWave().LiveShards
	}
	if last != 1 {
		t.Fatalf("idle fleet still at %d shards, want MinShards 1", last)
	}
	s.mu.Lock()
	budget = s.budget
	s.mu.Unlock()
	if budget != perShard {
		t.Fatalf("budget %v after shrink, want per-shard %v", budget, perShard)
	}

	// Conservation across all the scaling: every admitted request resolved.
	tot := s.Totals()
	if tot.Completed != tot.Submitted-tot.Rejected {
		t.Fatalf("conservation: %+v", tot)
	}
}

// TestServeAutoScaleValidation pins the config guardrails.
func TestServeAutoScaleValidation(t *testing.T) {
	if _, err := New(Config{AutoScale: &shard.AutoscalerConfig{}}); err == nil {
		t.Fatal("AutoScale without shards accepted")
	}
	if _, err := New(Config{Shards: 4, AutoScale: &shard.AutoscalerConfig{MaxShards: 2}}); err == nil {
		t.Fatal("AutoScale.MaxShards below Shards accepted")
	}
	s, err := New(Config{Shards: 2, Workers: 1, AutoScale: &shard.AutoscalerConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Fleet().Shards(); got != 4 {
		t.Fatalf("default slot capacity %d, want 2×Shards", got)
	}
	s.Close()
}

// TestOutcomeTimedOutString covers the new outcome's formatting.
func TestOutcomeTimedOutString(t *testing.T) {
	if got := OutcomeTimedOut.String(); got != "timed-out" {
		t.Fatalf("OutcomeTimedOut.String() = %q", got)
	}
}
