package sig

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitAsleep blocks until exactly n submitters sleep on the backpressure
// condition.
func waitAsleep(t *testing.T, s *sched, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		s.spaceMu.Lock()
		asleep := s.asleep
		s.spaceMu.Unlock()
		if asleep == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d submitters asleep, want %d", asleep, n)
		}
	}
}

func spaceWakes(s *sched) int {
	s.spaceMu.Lock()
	defer s.spaceMu.Unlock()
	return s.wakes
}

// fillRings pushes until every ring is full.
func fillRings(s *sched) {
	for seq := uint64(0); s.tryPush(&Task{Seq: seq}); seq++ {
	}
}

// enqueueAsync runs one blocking enqueue; the returned flag turns true when
// it got its slot.
func enqueueAsync(s *sched) *atomic.Bool {
	done := new(atomic.Bool)
	go func() {
		s.enqueue(&Task{})
		done.Store(true)
	}()
	return done
}

func waitDone(t *testing.T, what string, done *atomic.Bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !done.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still blocked", what)
		}
	}
}

// TestBackpressureWakesAtHalfRing plays the workers by hand: a submitter that
// found both 4-slot rings full is left asleep by pops that free slots without
// draining half a ring — an owner's and a stealer's, on either ring — and is
// woken by the pop that takes one ring's head two slots on, whoever makes it.
func TestBackpressureWakesAtHalfRing(t *testing.T) {
	s := newSched(2, 4)
	fillRings(s)
	done := enqueueAsync(s)
	waitAsleep(t, s, 1)
	dst := make([]*Task, 1)
	for _, r := range []*ring{s.rings[0], s.rings[1]} {
		if s.pop(r, dst) != 1 {
			t.Fatal("pop from a full ring returned nothing")
		}
		waitAsleep(t, s, 1) // still
	}
	if done.Load() || spaceWakes(s) != 0 {
		t.Fatalf("submitter woken %d times before any ring drained half", spaceWakes(s))
	}
	s.pop(s.rings[1], dst) // the "stealer" finishes ring 1's half
	waitDone(t, "after half of ring 1 drained", done)
	if w := spaceWakes(s); w != 1 {
		t.Errorf("submitter woken %d times, want once", w)
	}
}

// TestBackpressureBlockedBesideFlowing: two submitters sleep on a full ring
// and a third keeps submitting as fast as slots are popped free. It does not
// take them first — a submitter that finds others asleep queues behind them —
// so the pop that drains half the ring wakes the sleepers to enough room for
// all, and both get in within a bounded number of pops: half a ring, plus
// what the popper gets done before their goroutines have reported back.
func TestBackpressureBlockedBesideFlowing(t *testing.T) {
	const capacity = 8
	s := newSched(1, capacity)
	fillRings(s)
	a, b := enqueueAsync(s), enqueueAsync(s)
	waitAsleep(t, s, 2)
	var stop atomic.Bool
	flowing := make(chan struct{})
	go func() {
		defer close(flowing)
		for !stop.Load() {
			s.enqueue(&Task{})
		}
	}()
	dst := make([]*Task, 1)
	pops := 0
	for ; !a.Load() || !b.Load(); runtime.Gosched() {
		if pops == 100*capacity {
			t.Fatalf("after %d pops beside a flowing submitter: blocked ones done %v/%v", pops, a.Load(), b.Load())
		}
		pops += s.pop(s.rings[0], dst)
	}
	stop.Store(true)
	for done := false; !done; { // drain until the flowing submitter is out
		select {
		case <-flowing:
			done = true
		default:
			s.pop(s.rings[0], dst)
			runtime.Gosched()
		}
	}
}

// TestBackpressureIdleWorkerSignals: the rings can run dry before any head
// reaches its wakeAt — the pops between a submitter's failed push and its
// arming, or a consumer caught mid-copy, are not counted — so a worker that
// finds no work must signal too. The race is forced here by arming out of
// reach.
func TestBackpressureIdleWorkerSignals(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Policy: PolicyAccurate, QueueCapacity: 2})
	defer rt.Close()
	g := rt.Group("idle", 1.0)
	started, gate := make(chan struct{}), make(chan struct{})
	rt.Submit(func() { close(started); <-gate }, WithLabel(g))
	<-started
	for i := 0; i < 2; i++ {
		rt.Submit(func() {}, WithLabel(g))
	}
	done := new(atomic.Bool)
	go func() {
		rt.Submit(func() {}, WithLabel(g))
		done.Store(true)
	}()
	waitAsleep(t, rt.sched, 1)
	for _, r := range rt.sched.rings {
		r.wakeAt.Store(1 << 62)
	}
	close(gate)
	waitDone(t, "rings dry, worker idle", done)
	rt.Wait(g)
}

// spin is a task body of about d of wall time.
func spin(d time.Duration) func() {
	return func() {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
}

// TestBackpressureStealersNoDeadlock: four workers share what one submitter
// streams through tiny rings, every task aimed at ring 0 first, so most pops
// are steals and no single worker drains half of anything.
func TestBackpressureStealersNoDeadlock(t *testing.T) {
	const tasks = 20000
	rt := newRT(t, Config{Workers: 4, Policy: PolicyLQH, QueueCapacity: 8})
	defer rt.Close()
	g := rt.Group("steal", 0.5)
	body := spin(time.Microsecond)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < tasks; i++ {
			// Seq is the group's submitted count: skip three numbers so the
			// next is 0 mod 4 again. The group reports four times the tasks.
			g.submitted.Add(3)
			rt.Submit(body, WithLabel(g), WithSignificance(0.5), WithApprox(body), WithCost(10, 1))
		}
		rt.Wait(g)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("deadlock: %d of %d tasks submitted, %d submitters waiting", rt.Stats().Submitted/4, tasks, rt.sched.spaceWaiters.Load())
	}
}

// TestBackpressureWakesPerWave: a wave of per-task submits into workers
// slower than the submitter — held at a gate until it first sleeps — wakes it
// about once per half ring drained, far from once per popped chunk, which
// would be tasks/popBatchSize.
func TestBackpressureWakesPerWave(t *testing.T) {
	const tasks, workers = 4096, 2
	rt := newRT(t, Config{Workers: workers, Policy: PolicyLQH})
	defer rt.Close()
	g := rt.Group("wave", 0.5)
	gate := make(chan struct{})
	held, body := func() { <-gate }, spin(10*time.Microsecond)
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 0; i < tasks; i++ {
			fn := body
			if i < workers {
				fn = held
			}
			rt.Submit(fn, WithLabel(g), WithSignificance(0.5), WithApprox(fn), WithCost(10, 1))
		}
	}()
	waitAsleep(t, rt.sched, 1)
	close(gate)
	<-submitted
	rt.Wait(g)
	wakes := spaceWakes(rt.sched)
	if limit := 2*tasks/(DefaultQueueCapacity/2) + workers; wakes < 1 || wakes > limit {
		t.Errorf("submitter woken %d times in a wave of %d tasks, want 1..%d", wakes, tasks, limit)
	}
}
