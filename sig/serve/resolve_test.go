package serve

import (
	"bufio"
	"errors"
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
// keeps the slab stream's slots until every task staged on them has retired.

// TestServeDoneAtBodyEnd: of two requests in one wave, the body that starts
// second waits (bounded) for the other's Done. Whether the two run side by
// side on two executors or one after the other on the same one, the first
// has returned by then, so its Done must close without the wave ending — a
// server that resolves at the taskwait makes the second body time out,
// since the taskwait waits for it.
func TestServeDoneAtBodyEnd(t *testing.T) {
	s, err := New(Config{Workers: 2, WaveBudget: 1e9})
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
	if rep := s.RunWave(); rep.Admitted != 2 || rep.Accurate != 2 {
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
	s, err := New(Config{Workers: 2, QueueLimit: 256, WaveBudget: 1e9})
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
		if got := [3]int64{d.Accurate - before.Accurate, d.Degraded - before.Degraded, d.Dropped - before.Dropped}; got != [3]int64{int64(rep.Accurate), int64(rep.Degraded), int64(rep.Dropped)} {
			t.Fatalf("wave %d reports %d/%d/%d, Totals moved %v", rep.Wave, rep.Accurate, rep.Degraded, rep.Dropped, got)
		}
		if rep.Admitted == 0 {
			runtime.Gosched()
		}
	}
}

// TestServeLateShardCut: a shard that overruns the WaveTimeout cut leaves its
// tasks running past WaitPhase. The slow request must be served by its body
// when the body returns — significance 1.0 always runs Handler — not
// resolved dropped at the wave's end, and its slab must outlive the wave: a
// slot cleared under a running body crashed the server. Totals conserve
// after Close.
func TestServeLateShardCut(t *testing.T) {
	s, err := New(Config{Workers: 1, Shards: 2, WaveTimeout: 5 * time.Millisecond, WaveBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	slow, err := s.Submit(Request{Significance: 1, CostAccurate: 1000, Handler: func() {
		time.Sleep(30 * time.Millisecond)
		ran.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	fast := make([]*Ticket, 3)
	for i := range fast {
		if fast[i], err = s.Submit(Request{Significance: 1, CostAccurate: 1000, Handler: func() { ran.Add(1) }}); err != nil {
			t.Fatal(err)
		}
	}
	if rep := s.RunWave(); rep.Admitted != 4 {
		t.Fatalf("admitted %d of 4", rep.Admitted)
	}
	select {
	case <-slow.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("slow request unresolved 5s after its body started")
	}
	if got := slow.Outcome(); got != OutcomeAccurate {
		t.Errorf("slow request resolved %v, want accurate", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range fast {
		if got := tk.Wait(); got != OutcomeAccurate {
			t.Errorf("fast request %d resolved %v, want accurate", i, got)
		}
	}
	tot := s.Totals()
	if ran.Load() != 4 || tot.Submitted != 4 || tot.Completed != 4 || tot.Accurate != 4 || tot.Rejected != 0 {
		t.Errorf("after Close: %d bodies ran, totals %+v, want 4 submitted, completed and accurate", ran.Load(), tot)
	}
}

// TestServeWedgedShardDropsResolve: one shard of two is wedged by a body
// that does not return until the test lets it. The watchdog strikes it out
// of placement within a few waves, and from then on every wave runs on the
// healthy shard alone: its drops must resolve at its own wave's end and the
// slab list must stay bounded, not wait for the wedged shard to catch up.
// Once the body returns, Close resolves the rest and Totals conserve.
func TestServeWedgedShardDropsResolve(t *testing.T) {
	// The timeout is long against a healthy wave, so only the wedge misses it.
	s, err := New(Config{Workers: 1, Shards: 2, WaveTimeout: 50 * time.Millisecond, WaveBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	unwedge := make(chan struct{})
	var wedged atomic.Bool
	if _, err := s.Submit(Request{Significance: 1, CostAccurate: 1000, Handler: func() {
		wedged.Store(true)
		<-unwedge
	}}); err != nil {
		t.Fatal(err)
	}
	const waves, perWave, settleIn = 20, 4, 5
	var tks []*Ticket
	for w := range waves {
		if w == 0 {
			for !wedged.Load() {
				s.RunWave()
				runtime.Gosched()
			}
		}
		// Significance 0 without a degraded body: the policy drops each.
		wave := make([]*Ticket, perWave)
		for i := range wave {
			if wave[i], err = s.Submit(Request{Significance: 0, CostAccurate: 1000, Handler: func() {}}); err != nil {
				t.Fatal(err)
			}
		}
		tks = append(tks, wave...)
		rep := s.RunWave()
		if w < settleIn {
			continue
		}
		for i, tk := range wave {
			select {
			case <-tk.Done():
			default:
				t.Fatalf("wave %d: drop %d unresolved at its wave's end with the other shard wedged", w, i)
			}
		}
		if rep.Dropped != perWave {
			t.Fatalf("wave %d reports %d drops, want %d", w, rep.Dropped, perWave)
		}
		if n := len(s.slabs); n > settleIn {
			t.Fatalf("wave %d: %d slabs still listed", w, n)
		}
	}
	close(unwedge)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tks {
		if got := tk.Wait(); got != OutcomeDropped {
			t.Errorf("request %d resolved %v, want dropped", i, got)
		}
	}
	if tot := s.Totals(); tot.Submitted != tot.Completed || tot.Accurate != 1 || tot.Dropped != int64(len(tks)) {
		t.Errorf("after Close: totals %+v, want 1 accurate and %d dropped", tot, len(tks))
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
	for w := 0; w < 60; w++ {
		for i := 0; i < 24; i++ {
			req := request(w*24+i, &served)
			if i%3 == 0 {
				req.Deadline = time.Now().Add(2 * time.Millisecond)
			}
			// A host stall past the deadline rejects it at Submit: counted
			// in TimedOut and Rejected, which the scraper allows for.
			if _, err := s.Submit(req); err != nil && !errors.Is(err, ErrDeadlineExpired) {
				t.Fatal(err)
			}
		}
		if w%4 == 3 {
			time.Sleep(3 * time.Millisecond) // lapse this wave's deadlines in the queue
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
