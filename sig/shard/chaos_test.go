package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
)

// Chaos suite: shards leaving the fleet (DrainShard) or wedging mid-wave
// must never lose or double-count a task. Tasks are instrumented with a
// compare-and-swap so a body that runs twice is detected directly, not just
// through counter arithmetic.

// countingBody returns a task body that records exactly-once execution.
func countingBody(i int, ran []atomic.Bool, doubles *atomic.Int64) func() {
	return func() {
		if !ran[i].CompareAndSwap(false, true) {
			doubles.Add(1)
		}
	}
}

// TestChaosDrainShardMidWave closes one shard while four producers are
// mid-wave: the router must turn new work away from the dying shard, the
// shard must finish what it already accepted, and the merged accounting
// must conserve every task.
func TestChaosDrainShardMidWave(t *testing.T) {
	const (
		producers = 4
		perProd   = 400
		total     = producers * perProd
	)
	r, err := New(Config{Shards: 4, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("chaos", 0.5)

	ran := make([]atomic.Bool, total)  // accurate bodies
	ranA := make([]atomic.Bool, total) // approximate bodies
	var doubles atomic.Int64

	start := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < perProd; k++ {
				i := p*perProd + k
				r.Submit(g, sig.TaskSpec{
					Fn:           countingBody(i, ran, &doubles),
					Approx:       countingBody(i, ranA, &doubles),
					Significance: float64(i%9+1) / 10,
					HasCost:      true, CostAccurate: 10, CostApprox: 1,
				})
			}
		}()
	}
	close(start)
	// Kill shard 1 while the producers are running.
	if err := r.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainShard(1); err != nil { // idempotent
		t.Errorf("second DrainShard: %v", err)
	}
	wg.Wait()
	r.Wait(g)

	if n := doubles.Load(); n != 0 {
		t.Fatalf("%d task bodies ran twice", n)
	}
	gs := g.Stats()
	if gs.Submitted != total {
		t.Errorf("merged submitted %d, want %d: tasks lost in the drain", gs.Submitted, total)
	}
	if got := gs.Accurate + gs.Approximate + gs.Dropped; got != total {
		t.Errorf("merged decided %d, want %d", got, total)
	}
	ranTotal := 0
	for i := 0; i < total; i++ {
		if ran[i].Load() || ranA[i].Load() {
			ranTotal++
		}
	}
	if int64(ranTotal) != gs.Accurate+gs.Approximate {
		t.Errorf("%d bodies ran but merged Stats says %d executed", ranTotal, gs.Accurate+gs.Approximate)
	}
	if r.Live() != 3 {
		t.Errorf("%d shards live after one drain of 4", r.Live())
	}
	// The drained shard's completed work stays in the merged energy view.
	if r.Energy().Busy == 0 {
		t.Error("merged energy lost the drained shard's busy time")
	}
}

// TestChaosStalledShardHoldsWave wedges one shard mid-wave (its task bodies
// block on a gate) while the sibling shard is drained out from under the
// router: the merged taskwait must not report completion early, must ride
// out both failures, and must conserve every task once the gate opens.
func TestChaosStalledShardHoldsWave(t *testing.T) {
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("stall", 1.0)

	gate := make(chan struct{})
	var stalled, fast atomic.Int64
	// On a fresh two-slot router the n-th task goes to slot n mod 2: the
	// gated tasks (even) all land on shard 0, the fast ones (odd) on shard 1.
	for i := 0; i < 8; i++ {
		r.Submit(g, sig.TaskSpec{
			Fn:      func() { <-gate; stalled.Add(1) },
			HasCost: true, CostAccurate: 100, CostApprox: 0,
		})
		r.Submit(g, sig.TaskSpec{
			Fn:      func() { fast.Add(1) },
			HasCost: true, CostAccurate: 200, CostApprox: 0,
		})
	}
	if a, b := g.Part(0).Stats().Submitted, g.Part(1).Stats().Submitted; a != 8 || b != 8 {
		t.Fatalf("round-robin split %d/%d, want 8/8", a, b)
	}

	done := make(chan struct{})
	go func() {
		r.Wait(g)
		close(done)
	}()
	// The wave must be held open by the stalled shard.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("merged Wait returned while one shard was stalled mid-wave")
	default:
	}
	// Chaos on top: drain the healthy shard while its sibling is wedged.
	if err := r.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	// The drain ran shard 1's work to completion with the gate still shut,
	// so every fast task landed there and none queued behind the stall.
	if got := fast.Load(); got != 8 {
		t.Errorf("drained shard ran %d bodies before the gate opened, want 8", got)
	}
	// New work can only go to the stalled (sole live) shard; it must
	// queue, not vanish.
	r.Submit(g, sig.TaskSpec{
		Fn:      func() { stalled.Add(1) },
		HasCost: true, CostAccurate: 100, CostApprox: 0,
	})
	close(gate)
	<-done
	r.WaitPhase(g) // the straggler submitted after the Wait goroutine started

	if got := stalled.Load(); got != 9 {
		t.Errorf("stalled shard ran %d bodies, want 9", got)
	}
	gs := g.Stats()
	if gs.Submitted != 17 || gs.Accurate != 17 {
		t.Errorf("merged stats %+v after the chaos, want 17 submitted and accurate", gs)
	}
	// Draining the last live shard must be refused.
	if err := r.DrainShard(0); err == nil {
		t.Error("drained the last live shard")
	}
}

// TestDrainShardValidation covers the error edges of fleet surgery.
func TestDrainShardValidation(t *testing.T) {
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.DrainShard(-1); err == nil {
		t.Error("negative index accepted")
	}
	if err := r.DrainShard(2); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := r.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainShard(1); err == nil {
		t.Error("last live shard drained")
	}
	if r.Live() != 1 {
		t.Errorf("%d live shards, want 1", r.Live())
	}
	// The fleet still serves on its last shard.
	g := r.Group("", 1.0)
	var ran atomic.Int64
	r.Submit(g, sig.TaskSpec{Fn: func() { ran.Add(1) }, HasCost: true, CostAccurate: 10})
	r.Wait(g)
	if ran.Load() != 1 {
		t.Error("task on the surviving shard did not run")
	}
}
