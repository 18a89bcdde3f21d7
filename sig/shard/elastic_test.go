package shard

import (
	"errors"
	"math"
	"testing"

	"repro/sig"
)

// Elastic-fleet unit suite: sentinel errors, runtime rejoin (AddShard) and
// the autoscaler's step response on scripted load traces. The chaos package carries the
// end-to-end proofs; these tests pin the per-call contracts.

func newElasticRouter(t *testing.T, shards, slots int) *Router {
	t.Helper()
	r, err := New(Config{
		Shards:    shards,
		MaxShards: slots,
		Runtime:   sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestShardSentinelErrors pins every refusal to its typed sentinel so
// callers can program against errors.Is instead of string matching.
func TestShardSentinelErrors(t *testing.T) {
	r := newElasticRouter(t, 2, 3)

	if err := r.DrainShard(5); err == nil || errors.Is(err, ErrLastShard) {
		t.Fatalf("out-of-range drain: got %v, want a range error", err)
	}

	// Draining down to one shard is fine; the last routable one is not.
	if err := r.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainShard(0); !errors.Is(err, ErrLastShard) {
		t.Fatalf("draining the last shard: got %v, want ErrLastShard", err)
	}
	// Idempotent drain of an already-down shard.
	if err := r.DrainShard(1); err != nil {
		t.Fatalf("re-draining a down shard: got %v, want nil", err)
	}

	// Fill both free slots; the next AddShard must refuse.
	for i := 0; i < 2; i++ {
		if _, err := r.AddShard(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.AddShard(); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("AddShard at capacity: got %v, want ErrFleetFull", err)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainShard(0); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("drain after Close: got %v, want ErrRouterClosed", err)
	}
	if _, err := r.AddShard(); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("AddShard after Close: got %v, want ErrRouterClosed", err)
	}
}

// TestAddShardRejoinPreservesEnergy is the rejoin half of the energy
// additivity contract: drain a shard mid-run, rejoin the slot, finish the
// stream — the merged joules must stay bit-identical to the single-runtime
// golden, because retirement moves the drained incarnation's busy
// nanoseconds into an exact integer account and the joining shard starts
// with a zero busy clock.
func TestAddShardRejoinPreservesEnergy(t *testing.T) {
	const n, cost = 300, 12_345.0
	stream := func() []sig.TaskSpec {
		specs := make([]sig.TaskSpec, n)
		for i := range specs {
			specs[i] = sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: cost}
		}
		return specs
	}

	rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyAccurate})
	if err != nil {
		t.Fatal(err)
	}
	rt.SubmitBatch(nil, stream())
	rt.SubmitBatch(nil, stream())
	rt.Wait(nil)
	rt.Close()
	golden := rt.Energy()

	r, err := New(Config{
		Shards:  3,
		Runtime: sig.Config{Workers: 2, Policy: sig.PolicyAccurate},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := r.Group("rejoin", 1.0)
	r.SubmitBatch(g, stream())
	r.Wait(g)

	if err := r.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	slot, err := r.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if slot != 1 {
		t.Fatalf("rejoin took slot %d, want the drained slot 1", slot)
	}
	if got := r.ShardEnergy()[1].Busy; got != 0 {
		t.Fatalf("rejoined shard born with busy clock %v, want 0", got)
	}

	r.SubmitBatch(g, stream())
	r.Wait(g)
	r.Close()

	rep := r.Energy()
	if rep.Busy != golden.Busy {
		t.Fatalf("merged busy %v != golden %v across drain+rejoin", rep.Busy, golden.Busy)
	}
	if math.Float64bits(rep.Joules) != math.Float64bits(golden.Joules) {
		t.Fatalf("merged joules %v not bit-identical to golden %v across drain+rejoin",
			rep.Joules, golden.Joules)
	}
	gs := g.Stats()
	if gs.Submitted != 2*n || gs.Accurate != 2*n {
		t.Fatalf("conservation across rejoin: %+v, want %d submitted and accurate", gs, 2*n)
	}
}

// TestAutoscalerStepResponse replays a scripted load trace through the
// scaler and checks the full step response: scale-up after UpAfter
// high-load waves, cooldown suppression, scale-down after DownAfter
// low-load waves, Min/Max clamps, and no oscillation on steady load.
func TestAutoscalerStepResponse(t *testing.T) {
	r := newElasticRouter(t, 2, 4)
	a, err := NewAutoscaler(r, AutoscalerConfig{
		MinShards: 1, MaxShards: 4,
		UpAt: 1.2, DownAt: 0.4,
		UpAfter: 2, DownAfter: 3, Cooldown: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Steady in-band load: nothing happens.
	for i := 0; i < 10; i++ {
		if d := a.Observe(1.0); d != 0 {
			t.Fatalf("in-band wave %d acted with %+d", i, d)
		}
	}

	// Step up: first high wave arms, second fires.
	if d := a.Observe(2.0); d != 0 {
		t.Fatal("scaled up before UpAfter")
	}
	if d := a.Observe(2.0); d != +1 {
		t.Fatalf("second high wave: delta %+d, want +1", d)
	}
	if r.Live() != 3 {
		t.Fatalf("live after scale-up %d, want 3", r.Live())
	}
	// Cooldown: two waves of silence even under sustained overload.
	for i := 0; i < 2; i++ {
		if d := a.Observe(2.0); d != 0 {
			t.Fatalf("cooldown wave %d acted with %+d", i, d)
		}
	}
	// Streak restarts after cooldown; two more high waves fire again.
	a.Observe(2.0)
	if d := a.Observe(2.0); d != +1 {
		t.Fatal("post-cooldown overload did not scale up")
	}
	if r.Live() != 4 {
		t.Fatalf("live at max %d, want 4", r.Live())
	}
	// At MaxShards: sustained overload never acts again.
	for i := 0; i < 8; i++ {
		if d := a.Observe(3.0); d != 0 {
			t.Fatal("scaled past MaxShards")
		}
	}

	// Step down: DownAfter low waves (after cooldown already expired). Each
	// victim is the highest routable slot, so the fleet stays packed into its
	// low slots: 3, then 2, then 1.
	victim := 3
	for i := 0; i < 24 && r.Live() > 1; i++ {
		switch d := a.Observe(0.1); d {
		case 0:
		case -1:
			for j := 0; j < 4; j++ {
				if up := j < victim; r.routable(j) != up {
					t.Fatalf("scale-down to %d shards: slot %d live=%v", victim, j, r.routable(j))
				}
			}
			victim--
		default:
			t.Fatalf("low-load wave acted with %+d", d)
		}
	}
	if r.Live() != 1 || victim != 0 {
		t.Fatalf("scale-down: live %d (want 1) after %d down actions (want 3)", r.Live(), 3-victim)
	}
	// At MinShards: idle load never drains the last shard.
	for i := 0; i < 8; i++ {
		if d := a.Observe(0.0); d != 0 {
			t.Fatal("scaled below MinShards")
		}
	}
}

// TestAutoscalerConfigValidation pins the constructor's refusals.
func TestAutoscalerConfigValidation(t *testing.T) {
	r := newElasticRouter(t, 2, 3)
	bad := []AutoscalerConfig{
		{MinShards: -1},              // negative min
		{MinShards: 2, MaxShards: 1}, // max below min
		{MaxShards: 9},               // above slot capacity
		{UpAt: 0.4, DownAt: 0.5},     // inverted thresholds
		{UpAfter: -1},                // negative hysteresis
		{DownAfter: -2},              // negative hysteresis
		{MinShards: 1, MaxShards: 3, UpAt: 1, DownAt: 1}, // equal thresholds
	}
	for i, cfg := range bad {
		if _, err := NewAutoscaler(r, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, cfg)
		}
	}
	a, err := NewAutoscaler(r, AutoscalerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := a.cfg
	if got.MinShards != 1 || got.MaxShards != 3 || got.UpAt != DefaultScaleUpAt ||
		got.DownAt != DefaultScaleDownAt || got.UpAfter != DefaultScaleUpAfter ||
		got.DownAfter != DefaultScaleDownAfter || got.Cooldown != DefaultScaleCooldown {
		t.Fatalf("defaults not applied: %+v", got)
	}
}
