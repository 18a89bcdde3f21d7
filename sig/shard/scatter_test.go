package shard

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/sig"
)

// orderPolicy records the significances of the tasks its part receives, in
// order, and runs them all accurately: a per-shard transcript of what the
// router sent where.
type orderPolicy struct {
	mu   *sync.Mutex
	seen map[*sig.Group][]float64
	g    *sig.Group
}

func (p *orderPolicy) Submit(dst []*sig.Task, ts []sig.Task) []*sig.Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range ts {
		p.seen[p.g] = append(p.seen[p.g], ts[i].Significance)
		ts[i].Decision = sig.DecideAccurate
		dst = append(dst, &ts[i])
	}
	return dst
}
func (p *orderPolicy) Flush(dst []*sig.Task) []*sig.Task        { return dst }
func (p *orderPolicy) WorkerDecide(int, *sig.Task) sig.Decision { return sig.DecideAccurate }

// scatter builds a 5-shard fleet, submits specs through submit and returns
// what it left behind: each shard's sub-batch in arrival order.
func scatter(t *testing.T, specs []sig.TaskSpec, submit func(*Router, *Group)) [][]float64 {
	t.Helper()
	var mu sync.Mutex
	seen := map[*sig.Group][]float64{}
	r, err := New(Config{Shards: 5, Runtime: sig.Config{Workers: 1,
		NewPolicy: func(g *sig.Group) sig.Policy { return &orderPolicy{mu: &mu, seen: seen, g: g} }}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("scatter", 1.0)
	submit(r, g)
	subs := make([][]float64, r.Shards())
	mu.Lock()
	for i := range subs {
		subs[i] = slices.Clone(seen[g.Part(i)])
	}
	mu.Unlock()
	r.WaitPhase(g)
	return subs
}

// TestScatterMatchesSubmitLoop: SubmitBatch is a loop of Submit calls — the
// same sub-batch per shard in the same order — although it takes one cursor
// range for the whole batch.
func TestScatterMatchesSubmitLoop(t *testing.T) {
	const n = 997
	specs := make([]sig.TaskSpec, n)
	for i := range specs {
		// Unique mid-range significances identify the specs.
		specs[i] = sig.TaskSpec{Fn: func() {}, Significance: float64(i+1) / (n + 2)}
	}
	// The fleet takes no surgery; the case keeps the name it had beside the
	// drained-slot case.
	t.Run("round-robin/surgery=false", func(t *testing.T) {
		loop := scatter(t, specs, func(r *Router, g *Group) {
			for i := range specs {
				r.Submit(g, specs[i])
			}
		})
		// Two batches: the second starts mid-sequence.
		batch := scatter(t, specs, func(r *Router, g *Group) {
			r.SubmitBatch(g, specs[:n/3])
			r.SubmitBatch(g, specs[n/3:])
		})
		total := 0
		for i := range loop {
			total += len(loop[i])
			if !slices.Equal(loop[i], batch[i]) {
				t.Errorf("shard %d: SubmitBatch sent %d specs, the Submit loop %d, or in another order",
					i, len(batch[i]), len(loop[i]))
			}
		}
		if total != n {
			t.Fatalf("the Submit loop delivered %d of %d specs", total, n)
		}
	})
}

// TestRouterSubmitSharesSlabs: Router.Submit sends one-spec batches, which
// carve from the shard runtime's open slab — N of them draw about N/64 slabs
// of 64 tasks, where they used to burn one slab each.
func TestRouterSubmitSharesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: open slabs are lost at random")
	}
	const n = 64 * 64
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("singles", 0.5)
	spec := sig.TaskSpec{Fn: func() {}, Approx: func() {}, Significance: 0.5}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.Submit(g, spec)
	}
	runtime.ReadMemStats(&after)
	r.WaitPhase(g)
	// A slab is ~8 KB: n/64 of them plus the policies' buffer growth is well
	// under a megabyte, n of them is 32 MB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("%d Router.Submit calls allocated %d KB: a slab per call, not per 64", n, grew>>10)
	}
}
