package shard_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/chaos"
	"repro/sig/shard"
)

// TestRouterShardsOverlap pins that a merged taskwait runs the shards' waves
// side by side. Under GTB(max) nothing on a shard runs before its own flush,
// so a WaitPhase that flushed shard 1 only after shard 0 drained ran the
// fleet one shard at a time; WaitPhase flushes every shard first.
func TestRouterShardsOverlap(t *testing.T) {
	gtbMax := sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer}
	buffered := func(fn func()) sig.TaskSpec {
		return sig.TaskSpec{Fn: fn, Significance: 0.5, HasCost: true, CostAccurate: 100}
	}

	t.Run("synchronous", func(t *testing.T) {
		r, err := shard.New(shard.Config{Shards: 2, Runtime: gtbMax})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		g := r.Group("overlap", 1.0)

		// Shard 0's body can only finish early if shard 1's body runs
		// while shard 0's wave is still open.
		peer := make(chan struct{})
		var overlapped atomic.Bool
		r.SubmitBatch(g, []sig.TaskSpec{
			buffered(func() {
				select {
				case <-peer:
					overlapped.Store(true)
				case <-time.After(2 * time.Second):
				}
			}),
			buffered(func() { close(peer) }),
		})
		if a, b := g.Part(0).Stats().Submitted, g.Part(1).Stats().Submitted; a != 1 || b != 1 {
			t.Fatalf("round-robin split %d/%d, want 1/1", a, b)
		}
		if ws := r.WaitPhase(g); ws.Decided() != 2 {
			t.Fatalf("merged wave decided %d tasks, want 2", ws.Decided())
		}
		if !overlapped.Load() {
			t.Error("shard 1's wave did not start until shard 0's had drained")
		}
	})

	// With a WaveTimeout the flush pass must not block on a wedged shard,
	// the healthy shard's wave must complete inside the same merged wave,
	// and the wedged shard's cut must fold into a later wave, not vanish.
	t.Run("wedged shard under WaveTimeout", func(t *testing.T) {
		const perShard = 6
		r, err := shard.New(shard.Config{
			Shards: 2, Runtime: gtbMax,
			WaveTimeout: 30 * time.Millisecond, QuarantineAfter: 1 << 20, DrainAfter: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		g := r.Group("wedge", 1.0)

		// Seed 0 wedges every even wrap index: exactly the specs
		// round-robin places on shard 0.
		in := chaos.NewInjector(0, chaos.Config{WedgeEvery: 2})
		defer in.Open()
		var ran [2]atomic.Int64
		specs := make([]sig.TaskSpec, 2*perShard)
		for i := range specs {
			i := i
			specs[i] = in.Wrap(buffered(func() { ran[i%2].Add(1) }))
		}
		r.SubmitBatch(g, specs)

		first := r.WaitPhase(g)
		if first.Decided() != perShard || ran[1].Load() != perShard {
			t.Fatalf("wave behind a wedged sibling decided %d tasks and ran %d bodies on the healthy shard, want %d",
				first.Decided(), ran[1].Load(), perShard)
		}
		// The goroutine cutting shard 0's wave claims from the window too
		// (sig's taskwait helps), so it may be held on a task of its own.
		if w := in.Wedged(); w < 1 || w > 2 || ran[0].Load() != 0 {
			t.Fatalf("shard 0: %d wedged, %d bodies ran; want its one worker, and at most the goroutine cutting its wave, held on a first task", w, ran[0].Load())
		}
		// One strike turns a shard suspect (DefaultSuspectAfter); none leaves it live.
		if h0, h1 := r.Health(0), r.Health(1); h0 != shard.HealthSuspect || h1 != shard.HealthLive {
			t.Errorf("health %v/%v after one missed cut on shard 0, want suspect/live", h0, h1)
		}
		// A second wave while the cut is still outstanding neither
		// re-flushes the wedged shard nor waits on it.
		if ws := r.WaitPhase(g); ws.Decided() != 0 {
			t.Errorf("empty wave behind the wedge decided %d tasks", ws.Decided())
		}

		in.Open()
		late := 0
		for deadline := time.Now().Add(5 * time.Second); late < perShard && time.Now().Before(deadline); {
			late += r.WaitPhase(g).Decided()
		}
		if late != perShard || ran[0].Load() != perShard {
			t.Fatalf("late cut folded %d tasks (%d bodies ran), want %d", late, ran[0].Load(), perShard)
		}
		if gs := g.Stats(); gs.Submitted != 2*perShard || gs.Accurate != 2*perShard {
			t.Errorf("merged stats %+v, want %d submitted and accurate", gs, 2*perShard)
		}
	})
}
