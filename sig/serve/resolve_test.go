package serve

import (
	"bufio"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The per-request resolution contract: a request that runs a body resolves
// when that body returns, not when its wave's taskwait does; the wave end
// resolves only what no body ran for, reads no ticket a body resolved, and
// resets the wave's ran flags only once the taskwait has waited out every
// body that sets them.

// TestServeDoneAtBodyEnd: of two requests in one wave, the body that starts
// second waits (bounded) for the other's Done. Whether the two run side by
// side on two executors or one after the other on the same one, the first
// has returned by then, so its Done must close without the wave ending — a
// server that resolves at the taskwait makes the second body time out,
// since the taskwait waits for it.
func TestServeDoneAtBodyEnd(t *testing.T) {
	s, err := New(frozen(Config{Workers: 2}, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		tks     [2]*Ticket
		started atomic.Int32
		waited  = make(chan bool, 1)
	)
	body := func(i int) func() {
		return func() {
			if started.Add(1) == 1 {
				return
			}
			select {
			case <-tks[1-i].Done():
				waited <- true
			case <-time.After(time.Second):
				waited <- false
			}
		}
	}
	for i := range tks {
		if tks[i], err = s.Submit(Request{Significance: 1, Handler: body(i), CostAccurate: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if rep := s.RunWave(); rep.Admitted != 2 || rep.Stats.Accurate != 2 {
		t.Fatalf("wave %+v, want both requests served accurately", rep)
	}
	if !<-waited {
		t.Fatal("the first body's Done did not close within 1s of it returning: requests resolve at the taskwait")
	}
}

// TestServeReleaseAtDoneResubmits is the ticket-reuse stress of per-request
// resolution (the -race job is its oracle): each waiter Releases its ticket
// the moment Done closes and at once Submits again, while the wave that
// resolved it is still running, so the pool hands a ticket the wave end has
// not yet passed to a new request. Every wave's report must still match
// the Totals it moved, outcome by outcome, and every waiter must read the
// outcome its request's significance forces.
func TestServeReleaseAtDoneResubmits(t *testing.T) {
	s, err := New(frozen(Config{Workers: 2, QueueLimit: 256}, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three requests the specials decide without the policy: 1.0 runs the
	// handler, 0.0 the degraded body or, without one, nothing.
	reqs := [3]Request{
		{Significance: 1, Handler: func() {}, CostAccurate: 1000},
		{Significance: 0, Handler: func() {}, Degraded: func() {}, CostAccurate: 1000, CostDegraded: 100},
		{Significance: 0, Handler: func() {}, CostAccurate: 1000},
	}
	want := [3]Outcome{OutcomeAccurate, OutcomeDegraded, OutcomeDropped}
	const waiters, rounds = 8, 150
	var wg sync.WaitGroup
	errs := make(chan string, waiters)
	for w := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				k := (w + r) % len(reqs)
				tk, err := s.Submit(reqs[k])
				if err != nil {
					errs <- fmt.Sprintf("waiter %d: %v", w, err)
					return
				}
				if got := tk.Wait(); got != want[k] {
					errs <- fmt.Sprintf("waiter %d round %d: outcome %v, want %v", w, r, got, want[k])
					return
				}
				tk.Release()
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	for waves := 0; ; waves++ {
		select {
		case <-finished:
			close(errs)
			for msg := range errs {
				t.Error(msg)
			}
			if tot := s.Totals(); tot.Completed != waiters*rounds || tot.Submitted != tot.Completed {
				t.Errorf("totals %+v, want all %d requests completed", tot, waiters*rounds)
			}
			return
		default:
		}
		before := s.Totals()
		rep := s.RunWave()
		d := s.Totals()
		if got := [3]int64{d.Accurate - before.Accurate, d.Degraded - before.Degraded, d.Dropped - before.Dropped}; got != [3]int64{int64(rep.Stats.Accurate), int64(rep.Stats.Approximate), int64(rep.Stats.Dropped)} {
			t.Fatalf("wave %d reports %d/%d/%d, Totals moved %v", rep.Stats.Wave, rep.Stats.Accurate, rep.Stats.Approximate, rep.Stats.Dropped, got)
		}
		if rep.Admitted == 0 {
			runtime.Gosched()
		}
	}
}

// TestServeTotalsSnapshotConserves: a scraper reads Totals and the metrics
// while waves run, requests resolve on the workers and queued deadlines
// lapse. Every snapshot must conserve — Completed is the outcomes plus the
// queued timeouts, Submitted covers Completed and Rejected, Priority stays
// inside Completed — and no counter, the exported timed-out series
// included, may ever go backwards.
func TestServeTotalsSnapshotConserves(t *testing.T) {
	s := newTestServer(t, 16, func(c *Config) { c.PriorityAt = 0.9 })
	stop := make(chan struct{})
	stopScraper := sync.OnceFunc(func() { close(stop) })
	defer stopScraper()
	scraped := make(chan error, 1)
	go func() {
		var prev Totals
		var prevTimedOut int64
		var b strings.Builder
		for n := 0; ; n++ {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			tot := s.Totals()
			queued := tot.Completed - tot.Accurate - tot.Degraded - tot.Dropped
			switch {
			case queued < 0 || queued > tot.TimedOut:
				scraped <- fmt.Errorf("snapshot %d: Completed %d = %d+%d+%d + %d, outside the %d timeouts", n, tot.Completed, tot.Accurate, tot.Degraded, tot.Dropped, queued, tot.TimedOut)
				return
			case tot.Submitted < tot.Completed+tot.Rejected:
				scraped <- fmt.Errorf("snapshot %d: Submitted %d < Completed %d + Rejected %d", n, tot.Submitted, tot.Completed, tot.Rejected)
				return
			case tot.Priority > tot.Completed:
				scraped <- fmt.Errorf("snapshot %d: Priority %d above Completed %d", n, tot.Priority, tot.Completed)
				return
			case tot.Submitted < prev.Submitted || tot.Completed < prev.Completed || tot.Accurate < prev.Accurate ||
				tot.Degraded < prev.Degraded || tot.Dropped < prev.Dropped || tot.TimedOut < prev.TimedOut || tot.Waves < prev.Waves:
				scraped <- fmt.Errorf("snapshot %d went backwards: %+v after %+v", n, tot, prev)
				return
			}
			prev = tot
			b.Reset()
			if err := s.WriteMetrics(&b); err != nil {
				scraped <- err
				return
			}
			timedOut, err := timedOutSeries(b.String())
			if err != nil || timedOut < prevTimedOut {
				scraped <- fmt.Errorf("scrape %d: timed-out series %d after %d (%v)", n, timedOut, prevTimedOut, err)
				return
			}
			prevTimedOut = timedOut
		}
	}()
	var served [3]atomic.Int64
	fc := fakeClock(s)
	for w := 0; w < 60; w++ {
		for i := 0; i < 24; i++ {
			req := request(w*24+i, &served)
			if i%3 == 0 {
				req.Deadline = fc.Now().Add(2 * time.Millisecond)
			}
			if _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		if w%4 == 3 {
			fc.Advance(3 * time.Millisecond) // lapse this wave's deadlines in the queue
		}
		s.RunWave()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stopScraper()
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	if tot := s.Totals(); tot.Submitted != tot.Completed+tot.Rejected || tot.TimedOut == 0 {
		t.Errorf("after Close: totals %+v, want conserved with some queued timeouts", tot)
	}
}

// timedOutSeries parses the timed-out outcome's completed_total series.
func timedOutSeries(text string) (int64, error) {
	const key = `sigserve_completed_total{outcome="timedout"} `
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			var n int64
			_, err := fmt.Sscanf(v, "%d", &n)
			return n, err
		}
	}
	return 0, fmt.Errorf("no timed-out series")
}
