package sig

import (
	"runtime"
	"testing"
)

// slabSpy is a TaskOption that counts, per slab, the tasks Submit carved.
type slabSpy map[*taskSlab]int

func (s slabSpy) option() TaskOption { return func(t *Task) { s[t.slab]++ } }

// onOneP runs the rest of the test on one P. A sync.Pool keeps a Put in a
// slot private to the P that made it, where a Get from another P never
// looks: with the worker on one P and the test on another, a recycled slab is
// in the pool and drainSlabs does not find it, and an open slab put back by a
// submitter that then moved is not the one its next carve draws.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// drainSlabs empties the recycled-slab pool and reports how often each
// recycled slab was in it. A fresh slab (used == 0) means the pool is empty.
// Callers run onOneP.
func drainSlabs(p *taskPools) map[*taskSlab]int {
	in := map[*taskSlab]int{}
	for {
		s := p.slabs.Get().(*taskSlab)
		if s.used == 0 {
			return in
		}
		in[s]++
	}
}

// TestSlabLifecycle: a slab Submit carves from is recycled exactly once,
// by its 64th completion — never while it is still open, however many of the
// tasks it has handed out are already done.
func TestSlabLifecycle(t *testing.T) {
	onOneP(t)
	rt := newRT(t, Config{Workers: 1, Policy: PolicyAccurate})
	defer rt.Close()
	g := rt.Group("slab", 1.0)
	spy := slabSpy{}
	opts := []TaskOption{WithLabel(g), spy.option()}

	for i := 0; i < slabSize-1; i++ {
		rt.Submit(func() {}, opts...)
	}
	rt.Wait(g)
	for s, n := range spy {
		if s.used != n || int(s.done.Load()) != n {
			t.Errorf("open slab: %d handed out, %d seen, %d completed", s.used, n, s.done.Load())
		}
	}
	for s := range drainSlabs(&rt.pools) {
		if _, open := spy[s]; open {
			t.Fatalf("a slab with %d of %d tasks handed out was recycled", s.used, slabSize)
		}
	}

	if raceEnabled {
		return // sync.Pool drops Puts under -race: no open slab lives to be sealed
	}
	// Seal every slab seen so far and complete it.
	for i := 0; i < 2*slabSize; i++ {
		rt.Submit(func() {}, opts...)
	}
	rt.Wait(g)
	recycled := drainSlabs(&rt.pools)
	sealed := 0
	for s, n := range spy {
		if s.used < slabSize {
			if recycled[s] != 0 {
				t.Errorf("open slab (%d handed out) was recycled", s.used)
			}
			continue
		}
		sealed++
		if n != slabSize || s.done.Load() != slabSize {
			t.Errorf("sealed slab: %d tasks seen, %d completed, want %d", n, s.done.Load(), slabSize)
		}
		if recycled[s] != 1 {
			t.Errorf("sealed, completed slab is in the pool %d times, want once", recycled[s])
		}
	}
	if sealed == 0 {
		t.Fatalf("%d Submits sealed no slab", 3*slabSize-1)
	}
	if len(spy) != 3 {
		t.Errorf("%d Submits carved from %d slabs, want 3", 3*slabSize-1, len(spy))
	}
}

// TestOpenSlabDroppedByGC: the open pool may lose a slab to the collector
// while tasks carved from it are in flight. They still run, the slab is never
// recycled (it cannot reach 64 completions), and the next Submit starts
// another.
func TestOpenSlabDroppedByGC(t *testing.T) {
	onOneP(t)
	rt := newRT(t, Config{Workers: 1, Policy: PolicyAccurate})
	defer rt.Close()
	g := rt.Group("gc", 1.0)
	spy := slabSpy{}
	opts := []TaskOption{WithLabel(g), spy.option()}

	gate := make(chan struct{})
	ran := 0
	rt.Submit(func() { <-gate; ran++ }, opts...)
	for i := 1; i < 10; i++ {
		rt.Submit(func() { ran++ }, opts...)
	}
	runtime.GC() // the open pool's slab moves to the victim cache...
	runtime.GC() // ...and is dropped
	close(gate)
	rt.Wait(g)
	if ran != 10 {
		t.Fatalf("%d of 10 tasks ran after the open slab was dropped", ran)
	}
	dropped := map[*taskSlab]int{}
	for s, n := range spy {
		dropped[s] = n
	}
	rt.Submit(func() { ran++ }, opts...)
	rt.Wait(g)
	for s, n := range dropped {
		if spy[s] != n {
			t.Errorf("a Submit after the GC carved from the dropped slab")
		}
		if int(s.done.Load()) != n {
			t.Errorf("dropped slab: %d carved, %d completed", n, s.done.Load())
		}
	}
	for s := range drainSlabs(&rt.pools) {
		if _, was := dropped[s]; was {
			t.Errorf("dropped open slab (%d handed out) was recycled", s.used)
		}
	}
}

// slabCounter is a policy that counts how often the slab its tasks are carved
// from changes. Distinct slabs would undercount: completed ones come back.
type slabCounter struct {
	accuratePolicy
	last  *taskSlab
	drawn int
}

func (p *slabCounter) Submit(dst []*Task, ts []Task) []*Task {
	for i := range ts {
		if ts[i].slab != p.last {
			p.last = ts[i].slab
			p.drawn++
		}
	}
	return p.accuratePolicy.Submit(dst, ts)
}

// TestShortBatchesShareSlab: one-spec batches — what shard.Router.Submit
// sends — carve from the open slab like Submit does: N of them draw ⌈N/64⌉
// slabs, not N.
func TestShortBatchesShareSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: the open slab changes at random")
	}
	onOneP(t)
	const n = 10*slabSize + 1
	counter := &slabCounter{}
	rt := newRT(t, Config{Workers: 1, NewPolicy: func(*Group) Policy { return counter }})
	defer rt.Close()
	g := rt.Group("short", 1.0)
	for i := 0; i < n; i++ {
		rt.SubmitBatch(g, []TaskSpec{{Fn: func() {}, Significance: 0.5}})
	}
	rt.Wait(g)
	if got, want := counter.drawn, (n+slabSize-1)/slabSize; got != want {
		t.Errorf("%d one-spec batches drew %d slabs, want %d", n, got, want)
	}
}
