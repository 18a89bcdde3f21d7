package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
)

// TestServeSubmitAllocs is the zero-alloc gate of the serving admission
// path: once the pools are warm, a full steady-state wave — benchWave
// Submits, one RunWave, ticket reads and Releases — performs no heap
// allocation at all, on any goroutine. It mirrors sig's TestSubmitAllocs
// one layer up: the request path from Submit through the staged spec stream's
// batch ingest to ticket resolution. Staging writes each request's costs and
// degradability into its spec, so a wave that alternates three declared cost
// classes, one of them drop-only, costs what a uniform one does.
func TestServeSubmitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	if raceEnabled {
		// -race defeats every sync.Pool on purpose (Put drops ~25% of
		// items), so the zero-alloc property cannot be observed; the
		// non-race job is the gate, the race job checks reuse safety.
		t.Skip("sync.Pool poisons Puts under -race; zero-alloc not observable")
	}
	uniform := []Request{benchRequest()}
	mixed := []Request{benchRequest(), benchRequest(), benchRequest()}
	mixed[1].CostAccurate, mixed[1].CostDegraded = costAcc/2, costDeg/2
	mixed[2].CostAccurate, mixed[2].Degraded = 2*costAcc, nil // drop-only
	for _, tc := range []struct {
		name string
		reqs []Request
	}{{"one class", uniform}, {"three classes alternating", mixed}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newBenchServer(t)
			defer s.Close()
			tks := make([]*Ticket, 0, benchWave)
			wave := func() {
				for i := 0; i < benchWave; i++ {
					tk, err := s.Submit(tc.reqs[i%len(tc.reqs)])
					if err != nil {
						t.Fatal(err)
					}
					tks = append(tks, tk)
				}
				for s.Depth() > 0 { // the mixed wave outgrows one budget
					s.RunWave()
				}
				for _, tk := range tks {
					_ = tk.Outcome()
					_ = tk.WaveLatency()
				}
				tks = recycleTickets(tks)
			}
			// Warm every pool and reusable buffer: the ticket pool, the
			// spec buffer and ran flags, admit's batch buffer, the queue's
			// backing array.
			for i := 0; i < 8; i++ {
				wave()
			}
			avg := testing.AllocsPerRun(100, wave)
			if avg > 0.5 {
				t.Errorf("%.2f allocs per steady-state wave of %d requests, want 0", avg, benchWave)
			}
		})
	}
}

// TestServeWaitAllocs pins the one allocation TestServeSubmitAllocs does
// not see: a caller that waits on its request before it resolves — through
// Wait, as sigserve's handler and the serving benchmarks do — makes Done's
// channel, one per request. A wave goroutine runs each request's wave only
// once its caller is parked in Wait, and the caller submits the next request
// only after that wave has ended, so no request resolves before it is waited
// on.
func TestServeWaitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool poisons Puts under -race; allocations not observable")
	}
	s := newBenchServer(t)
	defer s.Close()
	req := benchRequest()
	next, ended := make(chan *Ticket), make(chan struct{})
	defer close(next)
	go func() {
		for tk := range next {
			for waiting := false; !waiting; runtime.Gosched() {
				tk.mu.Lock()
				waiting = tk.done != nil
				tk.mu.Unlock()
			}
			s.RunWave()
			ended <- struct{}{}
		}
	}()
	request := func() {
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		next <- tk
		_ = tk.Wait()
		tk.Release()
		<-ended
	}
	for i := 0; i < 8; i++ {
		request()
	}
	if avg := testing.AllocsPerRun(100, request); avg < 0.5 || avg > 1.5 {
		t.Errorf("%.2f allocs per request waited on before it resolved, want 1 (Done's channel)", avg)
	}
}

// TestTicketReuseSafety: pooled tickets may be read after their wave by a
// holder that already called Release (a bug, but a common one) — every
// accessor must stay race-free while the ticket is recycled and serves a
// new request. The stale reader loops over the full accessor surface while
// the main goroutine recycles the ticket through many reuse cycles; -race
// is the oracle. Properly used tickets must keep resolving correctly
// throughout.
func TestTicketReuseSafety(t *testing.T) {
	s := newBenchServer(t)
	defer s.Close()
	req := benchRequest()

	stale, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	s.RunWave()
	if o := stale.Wait(); o != OutcomeAccurate && o != OutcomeDegraded {
		t.Fatalf("warm-up request resolved %v", o)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Stale reads on a possibly-recycled ticket: values are
			// unspecified, but the reads must be race-free.
			_ = stale.Outcome()
			_ = stale.WaveLatency()
			_ = stale.Latency()
			select {
			case <-stale.Done():
			default:
			}
		}
	}()

	// Recycle the stale ticket and reuse the pool hard: each cycle likely
	// hands the same Ticket object to a new request while the reader above
	// still pokes at it.
	stale.Release()
	for i := 0; i < 200; i++ {
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		s.RunWave()
		if o := tk.Wait(); o != OutcomeAccurate && o != OutcomeDegraded {
			t.Fatalf("cycle %d resolved %v", i, o)
		}
		if tk.WaveLatency() < 1 {
			t.Fatalf("cycle %d: wave latency %d < 1", i, tk.WaveLatency())
		}
		tk.Release()
	}
	close(stop)
	wg.Wait()
}

// TestTicketReleaseOptional: an unreleased ticket keeps its resolved state
// forever — Release is an optimization, not an obligation.
func TestTicketReleaseOptional(t *testing.T) {
	s := newBenchServer(t)
	req := benchRequest()
	var tks []*Ticket
	for i := 0; i < benchWave; i++ {
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	s.RunWave()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tks {
		if o := tk.Outcome(); o != OutcomeAccurate && o != OutcomeDegraded {
			t.Errorf("request %d resolved %v after Close", i, o)
		}
		select {
		case <-tk.Done():
		default:
			t.Errorf("request %d: Done not closed", i)
		}
	}
}

// TestTicketReleaseBeforeDone: Release is the caller's last use of a ticket,
// not something that must wait for Done — a caller that gives up on a queued
// request (the HTTP front's client disconnect) releases at once. The server's
// own reference keeps the ticket out of the pool until the wave resolves it;
// only then is it reset and recycled, and whoever draws a ticket next starts
// from clean state. The wave runs on its own goroutine so that -race orders
// the caller's early Release against the server's resolution.
func TestTicketReleaseBeforeDone(t *testing.T) {
	s := newBenchServer(t)
	defer s.Close()
	tk, err := s.Submit(benchRequest())
	if err != nil {
		t.Fatal(err)
	}
	done := tk.Done() // a waiter's channel, taken before the ticket is given up
	tk.Release()
	if refs := tk.refs.Load(); refs != 1 {
		t.Fatalf("%d references after the caller's early Release, want the server's one", refs)
	}
	select {
	case <-done:
		t.Fatal("ticket resolved before its wave ran")
	default:
	}
	if other := getTicket(0); other == tk {
		t.Fatal("ticket recycled while the server still held it")
	} else {
		discardTicket(other)
	}

	waved := make(chan struct{})
	go func() {
		defer close(waved)
		s.RunWave()
	}()
	<-done  // the server resolved it: complete closed the waiter's channel
	<-waved // and finish dropped the last reference
	if tot := s.Totals(); tot.Completed != 1 || tot.Accurate+tot.Degraded != 1 {
		t.Fatalf("totals %+v, want the abandoned request served like any other", tot)
	}
	tk.mu.Lock()
	lazy := tk.done
	tk.mu.Unlock()
	if tk.refs.Load() != 0 || tk.completed.Load() || tk.doneWave.Load() != 0 || tk.finishedNs.Load() != 0 || lazy != nil {
		t.Fatalf("ticket not reset at its last release: refs=%d completed=%v doneWave=%d finishedNs=%d done=%v",
			tk.refs.Load(), tk.completed.Load(), tk.doneWave.Load(), tk.finishedNs.Load(), lazy)
	}
	next := getTicket(7) // the same object, unless the pool dropped it (-race does, on purpose)
	defer discardTicket(next)
	if next.refs.Load() != 2 || next.completed.Load() || Outcome(next.outcome.Load()) != OutcomeDropped || next.enqueuedNs.Load() != 7 {
		t.Fatalf("next ticket drawn dirty: refs=%d completed=%v outcome=%v enqueuedNs=%d",
			next.refs.Load(), next.completed.Load(), Outcome(next.outcome.Load()), next.enqueuedNs.Load())
	}
	select {
	case <-next.Done():
		t.Fatal("next ticket's Done already closed")
	default:
	}
}

// requestGone reports whether tk carries no trace of a request: no handler
// closure or server a holder of the ticket (or the pool) would pin, and the
// zero lane.
func requestGone(tk *Ticket) bool {
	r := &tk.req
	return r.Handler == nil && r.Degraded == nil && r.Deadline.IsZero() &&
		r.Significance == 0 && r.CostAccurate == 0 && r.CostDegraded == 0 && tk.lane == 0 && tk.srv == nil
}

// rejectedTicket has s reject req with wantErr on a ticket the test planted
// in an emptied pool, and returns that ticket as discardTicket left it. Under
// -race the pool drops a share of Puts on purpose, so the plant is retried
// until Submit's clock stamp shows on it.
func rejectedTicket(t *testing.T, s *Server, req Request, wantErr error) *Ticket {
	t.Helper()
	for try := 0; try < 1000; try++ {
		for ticketPool.Get() != nil {
		}
		planted := newTicket()
		ticketPool.Put(planted)
		if _, err := s.Submit(req); !errors.Is(err, wantErr) {
			t.Fatalf("Submit: got %v, want %v", err, wantErr)
		}
		if planted.enqueuedNs.Load() != 0 {
			return planted
		}
	}
	t.Fatal("the pool never handed Submit the planted ticket")
	return nil
}

// TestTicketDropsRequestAtResolution: the Ticket carries the request through
// the queue, and lets go of it the moment the server is done with it —
// however the request ends. A resolved ticket the caller never Releases, one
// resolved OutcomeTimedOut, and the pooled tickets of Submits rejected with
// ErrQueueFull and ErrClosed all hold a zero request, so no handler closure
// outlives its request; a ticket Released before Done keeps its request until
// the wave has run it, and is clean when the pool hands it out again.
func TestTicketDropsRequestAtResolution(t *testing.T) {
	clk := NewFakeClock()
	clk.Advance(time.Second) // off the epoch: a Submit stamps a non-zero enqueuedNs
	s := newTestServer(t, 8, func(c *Config) {
		c.Clock = clk
		c.QueueLimit = 4 // one priority slot, three bulk
		c.PriorityAt = 0.9
	})
	defer s.Close()
	var served [3]atomic.Int64
	premium := func() Request { // queues in the priority lane: a non-zero lane index
		r := request(8, &served)
		r.Significance = 1
		return r
	}

	// Resolved, never Released.
	kept, err := s.Submit(premium())
	if err != nil {
		t.Fatal(err)
	}
	if kept.req.Handler == nil || kept.lane != lanePriority {
		t.Fatalf("queued ticket does not carry its request: handler set %v, lane %d", kept.req.Handler != nil, kept.lane)
	}
	// Released before Done: the server's reference keeps the request.
	early, err := s.Submit(request(0, &served))
	if err != nil {
		t.Fatal(err)
	}
	early.Release()
	if early.refs.Load() != 1 || early.req.Handler == nil {
		t.Fatalf("abandoned ticket lost its request before the wave: refs=%d handler set %v", early.refs.Load(), early.req.Handler != nil)
	}
	// Expires in the queue.
	doomed := request(1, &served)
	doomed.Deadline = clk.Now().Add(time.Millisecond)
	late, err := s.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Millisecond)

	if rep := s.RunWave(); rep.Admitted != 2 || rep.TimedOut != 1 {
		t.Fatalf("wave admitted %d and timed out %d, want 2 and 1", rep.Admitted, rep.TimedOut)
	}
	if got := kept.Wait(); got != OutcomeAccurate || !requestGone(kept) {
		t.Errorf("resolved, unreleased ticket: outcome %v, request gone %v", got, requestGone(kept))
	}
	if got := late.Wait(); got != OutcomeTimedOut || !requestGone(late) {
		t.Errorf("timed-out ticket: outcome %v, request gone %v", got, requestGone(late))
	}
	if served[0].Load()+served[1].Load() != 2 {
		t.Errorf("%d bodies ran, want the abandoned request served like the kept one", served[0].Load()+served[1].Load())
	}
	if early.refs.Load() != 0 || !requestGone(early) {
		t.Errorf("abandoned ticket after its wave: refs=%d, request gone %v", early.refs.Load(), requestGone(early))
	}
	next := getTicket(0) // the abandoned ticket, unless the pool dropped it
	if !requestGone(next) {
		t.Error("the pool handed out a ticket that still carries a request")
	}
	discardTicket(next)

	// Rejected at a full lane, then at a closed server: the ticket goes back
	// to the pool without the request it briefly carried.
	if _, err := s.Submit(premium()); err != nil {
		t.Fatal(err)
	}
	if tk := rejectedTicket(t, s, premium(), ErrQueueFull); !requestGone(tk) {
		t.Error("ErrQueueFull left the request on the pooled ticket")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tk := rejectedTicket(t, s, premium(), ErrClosed); !requestGone(tk) {
		t.Error("ErrClosed left the request on the pooled ticket")
	}
}

// TestServeMixedClassWave is the contract of the single spec stream: one
// wave mixing three declared cost classes, degradable and drop-only requests,
// at tied significances and across a submit boundary. Every ticket resolves
// once with the body its outcome names, Totals conserve, the modeled joules
// are exactly DefaultActiveWatts × the declared cost of what ran, and among
// equal significances the earlier arrival is the one served accurately — GTB
// breaks ties by submission sequence, and requests reach it in admission
// order whatever their costs.
func TestServeMixedClassWave(t *testing.T) {
	classes := [3]costSums{{30_000, 4_000}, {50_000, 10_000}, {80_000, 20_000}}
	const n = serveSlabSize + serveSlabSize/2 // one full submit and a partial one
	// A server is one runtime, a single shard; the subtest keeps the name it
	// had when the shard count was a parameter.
	t.Run("shards=1", func(t *testing.T) {
		s, err := New(frozen(Config{Workers: 1, QueueLimit: n}, 1e9))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var ranAcc, ranDeg [n]atomic.Int32
		reqs := make([]Request, n)
		tks := make([]*Ticket, n)
		for i := range reqs {
			c := classes[i%3]
			reqs[i] = Request{
				Significance: 0.5,
				Handler:      func() { ranAcc[i].Add(1) },
				Degraded:     func() { ranDeg[i].Add(1) },
				CostAccurate: c.acc,
				CostDegraded: c.deg, // declared on the drop-only ones too: must not be charged
			}
			if (i/4)%4 == 0 {
				reqs[i].Significance = 0.8
			}
			if i%5 == 4 {
				reqs[i].Degraded = nil
			}
			if tks[i], err = s.Submit(reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		s.grp.SetRatio(0.5) // the cut falls inside the 0.5 level: ties decide it
		rep := s.RunWave()
		if rep.Admitted != n || rep.Stats.Accurate == 0 || rep.Stats.Approximate == 0 || rep.Stats.Dropped == 0 {
			t.Fatalf("wave %+v: want all %d admitted and every outcome present", rep, n)
		}

		var ran time.Duration
		var count [3]int
		shed := make(map[float64]int) // significance → first arrival not served accurately
		for i, tk := range tks {
			select {
			case <-tk.Done():
			default:
				t.Fatalf("request %d unresolved after its wave", i)
			}
			o := tk.Outcome()
			wantAcc, wantDeg := int32(0), int32(0)
			switch o {
			case OutcomeAccurate:
				wantAcc, ran = 1, ran+time.Duration(reqs[i].CostAccurate)
			case OutcomeDegraded:
				wantDeg, ran = 1, ran+time.Duration(reqs[i].CostDegraded)
				if reqs[i].Degraded == nil {
					t.Errorf("drop-only request %d served degraded", i)
				}
			case OutcomeDropped:
				if reqs[i].Degraded != nil {
					t.Errorf("degradable request %d dropped", i)
				}
			default:
				t.Fatalf("request %d resolved %v", i, o)
			}
			count[o]++
			if a, d := ranAcc[i].Load(), ranDeg[i].Load(); a != wantAcc || d != wantDeg {
				t.Errorf("request %d resolved %v but its bodies ran %d/%d times", i, o, a, d)
			}
			sv := reqs[i].Significance
			if first, seen := shed[sv]; o != OutcomeAccurate && !seen {
				shed[sv] = i
			} else if o == OutcomeAccurate && seen {
				t.Errorf("significance %.1f: request %d served accurately after the earlier %d was shed", sv, i, first)
			}
		}
		if count != [3]int{rep.Stats.Accurate, rep.Stats.Approximate, rep.Stats.Dropped} {
			t.Errorf("ticket outcomes %v disagree with the report %d/%d/%d", count, rep.Stats.Accurate, rep.Stats.Approximate, rep.Stats.Dropped)
		}
		tot := s.Totals()
		if tot.Submitted != n || tot.Completed != n || tot.Rejected != 0 ||
			tot.Accurate != int64(count[0]) || tot.Degraded != int64(count[1]) || tot.Dropped != int64(count[2]) {
			t.Errorf("totals %+v do not conserve %d requests served %v", tot, n, count)
		}
		if want := sig.DefaultActiveWatts * ran.Seconds(); rep.Stats.Joules != want || tot.Joules != want {
			t.Errorf("modeled %v J (totals %v J), want exactly %v J = DefaultActiveWatts × %v of declared cost run", rep.Stats.Joules, tot.Joules, want, ran)
		}
	})
}

// TestServeTotalsJoulesExact: over hundreds of waves of varying size, ratio
// and cost mix, Totals.Joules is the runtime's one account —
// DefaultActiveWatts × the integer sum of the declared nanoseconds that ran —
// bit for bit, not a float sum of per-wave joules that drifts from it.
func TestServeTotalsJoulesExact(t *testing.T) {
	const waves = 400
	s, err := New(frozen(Config{Workers: 2}, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ran time.Duration
	var count [outcomeCount]int
	tks := make([]*Ticket, 0, 32)
	costs := make([]costSums, 0, 32)
	for w := 0; w < waves; w++ {
		n := 1 + (w*7)%29
		for i := 0; i < n; i++ {
			req := Request{
				Significance: float64((w+i)%9+1) / 10,
				Handler:      func() {},
				CostAccurate: float64(30_001 + 977*((w*i)%13)),
			}
			if i%4 != 3 { // every fourth request is drop-only
				req.Degraded, req.CostDegraded = func() {}, float64(4_003+131*(i%7))
			}
			tk, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
			costs = append(costs, costSums{req.CostAccurate, req.CostDegraded})
		}
		s.grp.SetRatio(float64(w%5) / 4)
		s.RunWave()
		for i, tk := range tks {
			count[tk.Outcome()]++
			switch tk.Outcome() {
			case OutcomeAccurate:
				ran += time.Duration(costs[i].acc)
			case OutcomeDegraded:
				ran += time.Duration(costs[i].deg)
			}
			tk.Release()
		}
		tks, costs = tks[:0], costs[:0]
	}
	if count[OutcomeAccurate] == 0 || count[OutcomeDegraded] == 0 || count[OutcomeDropped] == 0 {
		t.Fatalf("outcomes %v: want every outcome present", count)
	}
	want := sig.DefaultActiveWatts * ran.Seconds()
	if got := s.Totals().Joules; got != want {
		t.Errorf("after %d waves Totals().Joules = %v, want exactly %v = DefaultActiveWatts × %v of declared cost run", waves, got, want, ran)
	}
}
