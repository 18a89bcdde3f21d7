package sig

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSegmentDispatchFIFO: a taskwait flush is published as one segment —
// whatever its length against the ring capacity, without the flusher ever
// blocking — and a single claimer takes it in exactly submission order. The
// taskwait claims too (help), so the test lets the worker finish the window
// before it waits.
func TestSegmentDispatchFIFO(t *testing.T) {
	const n = 1000 // several times the ring capacity below
	rt := newRT(t, Config{Workers: 1, Policy: PolicyGTBMaxBuffer, QueueCapacity: 8})
	defer rt.Close()
	g := rt.Group("fifo", 0.5)

	// A fully significant task bypasses the policy: it reaches the worker
	// through the ring and holds it while the wave is flushed.
	started, gate := make(chan struct{}), make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // before Close, which waits for the held task
	rt.Submit(func() { close(started); <-gate }, WithLabel(g))
	<-started

	var order []int
	specs := make([]TaskSpec, n)
	for i := range specs {
		i := i
		body := func() { order = append(order, i) }
		specs[i] = TaskSpec{Fn: body, Approx: body, Significance: float64(i%9+1) / 10,
			HasCost: true, CostAccurate: 10, CostApprox: 1}
	}
	rt.SubmitBatch(g, specs)
	rt.Flush(g) // returns with the only worker still held
	if rem := rt.sched.seg.remaining.Load(); rem != n {
		t.Fatalf("published segment holds %d unclaimed tasks, want %d", rem, n)
	}
	openGate()
	for g.pending.Load() > 0 {
		runtime.Gosched()
	}
	if ws := rt.WaitPhase(g); ws.Decided() != n+1 {
		t.Fatalf("wave decided %d tasks, want %d", ws.Decided(), n+1)
	}
	if len(order) != n {
		t.Fatalf("%d bodies ran, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d ran task %d: segment dispatch is not FIFO", i, got)
		}
	}
	if rt.sched.seg.owned.Load() {
		t.Error("segment still owned after its last chunk was claimed")
	}
}

// TestSegmentRingCloseRace runs both dispatch lanes at once and closes the
// runtime under them: group A streams fully significant tasks through
// saturated rings, group B loops batch submits and taskwaits through the
// segment, and Close races both. Every task that was accepted must be
// decided exactly once, and no goroutine may outlive Close.
func TestSegmentRingCloseRace(t *testing.T) {
	before := runtime.NumGoroutine()
	rt, err := New(Config{Workers: 2, Policy: PolicyGTBMaxBuffer, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rt.Group("ring", 1.0), rt.Group("segment", 0.5)
	specs := make([]TaskSpec, 100)
	for i := range specs {
		specs[i] = TaskSpec{Fn: func() {}, Approx: func() {}, Significance: float64(i%9+1) / 10,
			HasCost: true, CostAccurate: 10, CostApprox: 1}
	}

	var wg sync.WaitGroup
	var ringed, waves atomic.Int64
	// untilClosed runs step until the runtime refuses it.
	untilClosed := func(step func()) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil && p != "sig: Submit on closed runtime" {
				t.Errorf("unexpected panic: %v", p)
			}
		}()
		for {
			step()
		}
	}
	wg.Add(2)
	go untilClosed(func() {
		rt.Submit(func() {}, WithLabel(a), WithCost(10, 0))
		ringed.Add(1)
	})
	go untilClosed(func() {
		rt.SubmitBatch(b, specs)
		rt.WaitPhase(b)
		waves.Add(1)
	})
	for deadline := time.Now().Add(10 * time.Second); ringed.Load() < 500 || waves.Load() < 20; {
		if time.Now().After(deadline) {
			t.Fatalf("lanes stalled: %d ring tasks, %d segment waves", ringed.Load(), waves.Load())
		}
		runtime.Gosched()
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for _, gs := range rt.Stats().Groups {
		if gs.Submitted == 0 || gs.Submitted != gs.Accurate+gs.Approximate+gs.Dropped {
			t.Errorf("group %q: submitted %d, decided %d+%d+%d", gs.Name, gs.Submitted, gs.Accurate, gs.Approximate, gs.Dropped)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSegmentNotStarvedByRing: a stream that keeps a worker's ring full must
// not starve a taskwait on another group. If the own ring always went first,
// the flushed window would only advance a chunk each time the ring happened
// to run empty; the worker gives the segment every other turn, so between
// the wave's first and last body it runs at most one ring batch per claim.
func TestSegmentNotStarvedByRing(t *testing.T) {
	const wave = 64
	rt := newRT(t, Config{Workers: 1, Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	a, b := rt.Group("stream", 1.0), rt.Group("wave", 0.5)

	// Bodies slower than Submit keep the producer backpressured on a full
	// ring for as long as the test runs.
	var streamed atomic.Int64
	spin := func() {
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
		streamed.Add(1)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				rt.Submit(spin, WithLabel(a), WithCost(10, 0))
			}
		}
	}()
	defer func() { close(stop); <-stopped }()
	ring := rt.sched.rings[0]
	for ring.tail.Load()-ring.head.Load() < DefaultQueueCapacity/2 {
		runtime.Gosched()
	}

	// The wave's first and last body (FIFO on the one worker) read the
	// stream's progress, so the bound below counts scheduling turns, not
	// wall time.
	var atFirst, atLast int64
	specs := make([]TaskSpec, wave)
	for i := range specs {
		body := func() {}
		switch i {
		case 0:
			body = func() { atFirst = streamed.Load() }
		case wave - 1:
			body = func() { atLast = streamed.Load() }
		}
		specs[i] = TaskSpec{Fn: body, Approx: body, Significance: float64(i%9+1) / 10,
			HasCost: true, CostAccurate: 10, CostApprox: 1}
	}
	rt.SubmitBatch(b, specs)
	if ws := rt.WaitPhase(b); ws.Decided() != wave {
		t.Fatalf("wave decided %d tasks, want %d", ws.Decided(), wave)
	}
	// Guided chunks of a 64-task window with one worker and the taskwait
	// claiming: 16,12,9,6,5,4,3,2 and seven of 1 — fifteen claims, were the
	// worker to make them all.
	if between, limit := atLast-atFirst, int64(15*popBatchSize); between > limit {
		t.Errorf("%d streamed tasks ran between the wave's first and last body, want <= %d: the segment waited for the ring to run empty", between, limit)
	}
}
