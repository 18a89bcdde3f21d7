package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeExpiredDeepInQueueFreesSlots is the stranded-expiry regression
// test: requests whose deadline passes while queued must not hold queue
// slots against live traffic, however deep they sit. Before the fix the
// admission skim stopped at the wave-budget cut-off and the queue-full
// Submit path never swept at all, so a backlog of expired requests pinned
// the queue at its limit and rejected everything after it.
func TestServeExpiredDeepInQueueFreesSlots(t *testing.T) {
	s := newTestServer(t, 4, func(c *Config) { c.QueueLimit = 8 })
	defer s.Close()
	var served [3]atomic.Int64

	fc := fakeClock(s)
	deadline := fc.Now().Add(20 * time.Millisecond)
	var tks []*Ticket
	for i := 0; i < 8; i++ {
		req := request(i, &served)
		req.Deadline = deadline
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if _, err := s.Submit(request(8, &served)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue at limit: Submit err = %v, want ErrQueueFull", err)
	}
	fc.Advance(30 * time.Millisecond) // let every queued deadline lapse

	// The queue is nominally full — but full of corpses. A live Submit must
	// reap them and be admitted, not bounce.
	tk, err := s.Submit(request(8, &served))
	if err != nil {
		t.Fatalf("Submit after queued deadlines lapsed: %v (pre-fix: ErrQueueFull)", err)
	}
	if got := s.Depth(); got != 1 {
		t.Errorf("queue depth %d after the reap, want 1 (the live request)", got)
	}
	for i, exp := range tks {
		if out := exp.Wait(); out != OutcomeTimedOut {
			t.Errorf("expired ticket %d: outcome %v, want TimedOut", i, out)
		}
	}
	s.RunWave()
	if out := tk.Wait(); out == OutcomeTimedOut {
		t.Errorf("live request timed out; want it served")
	}
	tot := s.Totals()
	if tot.TimedOut != 8 || tot.Completed != 9 {
		t.Errorf("totals TimedOut=%d Completed=%d, want 8 and 9", tot.TimedOut, tot.Completed)
	}
}

// TestServePriorityLaneBypassesBacklog: a premium request submitted behind
// a deep bulk backlog is served by the very next wave, while the bulk tail
// waits multiple waves.
func TestServePriorityLaneBypassesBacklog(t *testing.T) {
	s := newTestServer(t, 4, func(c *Config) { c.PriorityAt = 0.9 })
	defer s.Close()
	var served [3]atomic.Int64

	var bulk []*Ticket
	for i := 0; i < 12; i++ {
		req := request(i, &served)
		req.Significance = 0.5
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		bulk = append(bulk, tk)
	}
	prioReq := request(0, &served)
	prioReq.Significance = 0.95
	prio, err := s.Submit(prioReq)
	if err != nil {
		t.Fatal(err)
	}

	rep := s.RunWave()
	if rep.PriorityAdmitted != 1 {
		t.Fatalf("wave admitted %d priority requests, want 1 (of %d total)", rep.PriorityAdmitted, rep.Admitted)
	}
	if got := prio.WaveLatency(); got != 1 {
		t.Errorf("priority request submitted 13th served with latency %d, want 1", got)
	}
	for s.Depth() > 0 {
		s.RunWave()
	}
	slow := 0
	for _, tk := range bulk {
		if tk.WaveLatency() > 1 {
			slow++
		}
	}
	if slow == 0 {
		t.Errorf("no bulk request waited past its arrival wave: the backlog the priority lane bypassed is missing")
	}
	if tot := s.Totals(); tot.Priority != 1 {
		t.Errorf("Totals.Priority = %d, want 1", tot.Priority)
	}
}

// TestServePriorityReservedSlice: the priority lane owns its slice of the
// queue limit outright — a bulk flood that fills its own lane cannot take
// the premium slots, and each lane's overflow prices its own backlog.
func TestServePriorityReservedSlice(t *testing.T) {
	s := newTestServer(t, 4, func(c *Config) {
		c.QueueLimit = 8
		c.PriorityAt = 0.9 // default slice: 8/4 = 2, bulk keeps 6
	})
	defer s.Close()
	var served [3]atomic.Int64

	mk := func(sig float64) Request {
		req := request(0, &served)
		req.Significance = sig
		return req
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(mk(0.5)); err != nil {
			t.Fatalf("bulk submit %d: %v", i, err)
		}
	}
	var over *OverloadError
	if _, err := s.Submit(mk(0.5)); !errors.As(err, &over) {
		t.Fatalf("bulk lane full: err = %v, want OverloadError", err)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("bulk overflow RetryAfter = %v, want > 0", over.RetryAfter)
	}

	// The bulk flood is bounced, but premium admission still has its slots.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(mk(0.95)); err != nil {
			t.Fatalf("priority submit %d with bulk lane full: %v", i, err)
		}
	}
	bulk, prio := s.LaneDepths()
	if bulk != 6 || prio != 2 {
		t.Fatalf("lane depths bulk=%d prio=%d, want 6 and 2", bulk, prio)
	}

	// Priority overflow prices only the priority backlog: 2 queued premium
	// requests against a 4-request budget is under one wave.
	var pOver *OverloadError
	if _, err := s.Submit(mk(0.95)); !errors.As(err, &pOver) {
		t.Fatalf("priority lane full: err = %v, want OverloadError", err)
	}
	if pOver.RetryAfter > over.RetryAfter {
		t.Errorf("priority RetryAfter %v above bulk's %v: premium overflow must not price the bulk backlog",
			pOver.RetryAfter, over.RetryAfter)
	}
}

// TestServeWindowedQualityFloor drives a sustained 4x overload whose
// unfloored equilibrium ratio sits far below the floor and checks the
// windowed SLO end to end: every full window's mean provided ratio holds
// the floor (within slack for provided-vs-commanded quantization), while
// individual waves still dip below it — the floor is a long-run average,
// not a per-wave clamp.
func TestServeWindowedQualityFloor(t *testing.T) {
	const window, floor = 8, 0.5
	s := newTestServer(t, 8, func(c *Config) {
		c.QualityFloor = floor
		c.QualityWindow = window
	})
	defer s.Close()
	var served [3]atomic.Int64

	var provided []float64
	for w := 0; w < 60; w++ {
		for i := 0; i < 32; i++ {
			if _, err := s.Submit(request(i, &served)); err != nil && !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
		}
		rep := s.RunWave()
		if rep.Admitted > 0 {
			provided = append(provided, rep.Provided)
		}
	}
	dipped := false
	for i := range provided {
		if provided[i] < floor-1e-9 {
			dipped = true
		}
		if i+1 < window {
			continue
		}
		var sum float64
		for _, p := range provided[i+1-window : i+1] {
			sum += p
		}
		if mean := sum / window; mean < floor-0.05 {
			t.Errorf("window ending at wave %d: mean provided %.3f below floor %.2f", i, mean, floor)
		}
	}
	if !dipped {
		t.Errorf("no wave dipped below the %.2f floor under 4x overload: the window floor is acting per-wave", floor)
	}
}

// TestServeOutcomeConservation drives seeded random Submit/RunWave/deadline
// interleavings and asserts the serving ledger balances at every quiescent
// point: everything submitted is rejected, completed, or still queued; and
// everything completed carries exactly one outcome. preExpired tracks
// Submits rejected already-expired (counted in both Rejected and TimedOut),
// so completed outcomes reconcile against queued timeouts alone.
func TestServeOutcomeConservation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := newTestServer(t, 4, func(c *Config) {
			c.QueueLimit = 16
			c.PriorityAt = 0.7
		})
		var served [3]atomic.Int64
		var preExpired int64
		fc := fakeClock(s)

		check := func(when string) {
			t.Helper()
			tot := s.Totals()
			if depth := int64(s.Depth()); tot.Submitted != tot.Rejected+tot.Completed+depth {
				t.Fatalf("seed %d, %s: Submitted %d != Rejected %d + Completed %d + Depth %d",
					seed, when, tot.Submitted, tot.Rejected, tot.Completed, depth)
			}
			queuedTimeouts := tot.TimedOut - preExpired
			if tot.Completed != tot.Accurate+tot.Degraded+tot.Dropped+queuedTimeouts {
				t.Fatalf("seed %d, %s: Completed %d != Accurate %d + Degraded %d + Dropped %d + queued timeouts %d",
					seed, when, tot.Completed, tot.Accurate, tot.Degraded, tot.Dropped, queuedTimeouts)
			}
			if tot.Priority > tot.Completed {
				t.Fatalf("seed %d, %s: Priority %d above Completed %d", seed, when, tot.Priority, tot.Completed)
			}
		}

		for op := 0; op < 400; op++ {
			switch v := rng.Float64(); {
			case v < 0.68: // submit, sometimes with a deadline (sometimes lapsed)
				req := request(rng.Intn(64), &served)
				req.Significance = rng.Float64()
				if d := rng.Float64(); d < 0.1 {
					req.Deadline = fc.Now().Add(-time.Millisecond) // dead on arrival
				} else if d < 0.3 {
					req.Deadline = fc.Now().Add(time.Duration(1+rng.Intn(10)) * time.Millisecond)
				}
				if _, err := s.Submit(req); errors.Is(err, ErrDeadlineExpired) {
					preExpired++
				}
			case v < 0.72: // let queued deadlines lapse
				fc.Advance(3 * time.Millisecond)
			default:
				s.RunWave()
				check("after wave")
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if depth := s.Depth(); depth != 0 {
			t.Fatalf("seed %d: depth %d after Close", seed, depth)
		}
		check("after Close")
	}
}

// TestServeWriteMetrics scrapes a lane-enabled server and checks the
// Prometheus exposition: the advertised families are present, counters
// agree with Totals, and the per-lane wave-latency histogram accounts for
// every completed request.
func TestServeWriteMetrics(t *testing.T) {
	s := newTestServer(t, 4, func(c *Config) { c.PriorityAt = 0.9 })
	var served [3]atomic.Int64
	for i := 0; i < 10; i++ {
		req := request(i, &served)
		if i%3 == 0 {
			req.Significance = 0.95
		} else {
			req.Significance = 0.5
		}
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	s.RunWave()

	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	tot := s.Totals()
	bulkD, prioD := s.LaneDepths()
	for _, want := range []string{
		fmt.Sprintf("sigserve_submitted_total %d\n", tot.Submitted),
		fmt.Sprintf("sigserve_rejected_total %d\n", tot.Rejected),
		fmt.Sprintf("sigserve_completed_total{outcome=\"accurate\"} %d\n", tot.Accurate),
		fmt.Sprintf("sigserve_priority_completed_total %d\n", tot.Priority),
		fmt.Sprintf("sigserve_waves_total %d\n", tot.Waves),
		fmt.Sprintf("sigserve_early_waves_total %d\n", tot.EarlyWaves),
		fmt.Sprintf("sigserve_queue_depth{lane=\"bulk\"} %d\n", bulkD),
		fmt.Sprintf("sigserve_queue_depth{lane=\"priority\"} %d\n", prioD),
		"# TYPE sigserve_wave_latency_waves histogram\n",
		"sigserve_wave_latency_waves_bucket{lane=\"priority\",le=\"1\"}",
		"sigserve_wave_latency_waves_bucket{lane=\"bulk\",le=\"+Inf\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Histogram conservation: every completed request was recorded in
	// exactly one lane's histogram.
	var counts int64
	for _, lane := range []string{"bulk", "priority"} {
		var n int64
		key := fmt.Sprintf("sigserve_wave_latency_waves_count{lane=%q} ", lane)
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, key) {
				if _, err := fmt.Sscanf(strings.TrimPrefix(line, key), "%d", &n); err != nil {
					t.Fatalf("unparseable count line %q: %v", line, err)
				}
			}
		}
		counts += n
	}
	if counts != tot.Completed {
		t.Errorf("histogram counts sum to %d, want Completed %d", counts, tot.Completed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter is a writer whose connection dies after n bytes; late counts
// the writes attempted on the dead connection.
type failAfter struct {
	n    int
	dead bool
	late int
}

var errConnDied = errors.New("connection died")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.dead {
		f.late++
		return 0, errConnDied
	}
	if len(p) > f.n {
		f.dead = true
		return f.n, errConnDied
	}
	f.n -= len(p)
	return len(p), nil
}

// TestServeWriteMetricsReportsWriteError: a scrape whose writer fails part
// way is reported failed with the writer's own error, and the dead writer is
// not written to again.
func TestServeWriteMetricsReportsWriteError(t *testing.T) {
	s := newTestServer(t, 4, nil)
	defer s.Close()
	var full strings.Builder
	if err := s.WriteMetrics(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 100, full.Len() - 1} {
		w := &failAfter{n: n}
		if err := s.WriteMetrics(w); !errors.Is(err, errConnDied) {
			t.Errorf("writer failing after %d of %d bytes: WriteMetrics returned %v, want the write error", n, full.Len(), err)
		}
		if w.late != 0 {
			t.Errorf("writer failing after %d bytes was written to %d more times", n, w.late)
		}
	}
	if err := s.WriteMetrics(&failAfter{n: full.Len()}); err != nil {
		t.Errorf("a writer with room for the whole scrape: %v", err)
	}
}
