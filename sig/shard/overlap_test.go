package shard_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
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

}
