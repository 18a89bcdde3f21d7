package chaos

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/shard"
)

// TestChaosRollingReplace is the fleet's headline robustness proof: under
// sustained overload, every original shard is replaced in sequence —
// AddShard a fresh runtime (surge), DrainShard the old one — at several
// fleet sizes. The fleet must lose nothing: every submitted task decided,
// availability never below the nominal size (recovery bound: zero waves
// under surge-then-drain), and the merged modeled energy bit-identical to
// a single-runtime golden executing the same outcome mix.
func TestChaosRollingReplace(t *testing.T) {
	const (
		costAcc = 10_000.0
		costDeg = 1_000.0
	)
	for _, shards := range []int{1, 2, 4, 8} {
		r, err := shard.New(shard.Config{
			Shards:    shards,
			MaxShards: shards + 1, // one spare slot: surge before draining
			Runtime:   sig.Config{Workers: 2, Policy: sig.PolicyGTBMaxBuffer},
		})
		if err != nil {
			t.Fatal(err)
		}
		g := r.Group("roll", 0.5)
		var ran atomic.Int64
		perWave := 64 * shards // far past the fleet's per-wave capacity
		submitted := 0
		submitWave := func() {
			specs := make([]sig.TaskSpec, perWave)
			for i := range specs {
				specs[i] = sig.TaskSpec{
					Fn:           func() { ran.Add(1) },
					Approx:       func() { ran.Add(1) },
					Significance: float64(i%9+1) / 10,
					HasCost:      true, CostAccurate: costAcc, CostApprox: costDeg,
				}
			}
			r.SubmitBatch(g, specs)
			submitted += perWave
		}

		submitWave()
		r.Wait(g)
		for j := 0; j < shards; j++ {
			submitWave() // keep the pressure on during surgery
			if _, err := r.AddShard(); err != nil {
				t.Fatalf("%d shards: rejoin %d: %v", shards, j, err)
			}
			if err := r.DrainShard(j); err != nil {
				t.Fatalf("%d shards: drain %d: %v", shards, j, err)
			}
			// Surge-then-drain: availability must never dip below nominal.
			if live, routable := r.Live(), r.Routable(); live != shards || routable != shards {
				t.Fatalf("%d shards: after replace %d: live %d routable %d, want %d",
					shards, j, live, routable, shards)
			}
			r.Wait(g)
		}
		submitWave()
		r.Wait(g)

		// Zero requests lost: every submission decided, every executed body
		// observed.
		gs := g.Stats()
		if gs.Submitted != int64(submitted) {
			t.Fatalf("%d shards: submitted %d, stats count %d", shards, submitted, gs.Submitted)
		}
		decided := gs.Accurate + gs.Approximate + gs.Dropped
		if decided != gs.Submitted {
			t.Fatalf("%d shards: %d submitted but %d decided (lost %d)",
				shards, gs.Submitted, decided, gs.Submitted-decided)
		}
		if got := ran.Load(); got != gs.Accurate+gs.Approximate {
			t.Fatalf("%d shards: %d bodies ran, counters say %d",
				shards, got, gs.Accurate+gs.Approximate)
		}

		// Merged energy: exact integer busy sum across incarnations, and
		// bit-identical joules to a single runtime running the same outcome
		// mix (reconstructed golden: the outcome counts are placement- and
		// policy-dependent, the energy of a given mix is not).
		rep := r.Energy()
		wantBusy := time.Duration(gs.Accurate)*time.Duration(costAcc) +
			time.Duration(gs.Approximate)*time.Duration(costDeg)
		if rep.Busy != wantBusy {
			t.Fatalf("%d shards: merged busy %v, want exact %v", shards, rep.Busy, wantBusy)
		}
		golden := goldenEnergy(t, gs.Accurate, gs.Approximate, costAcc, costDeg)
		if math.Float64bits(rep.Joules) != math.Float64bits(golden.Joules) {
			t.Fatalf("%d shards: merged %.12f J, golden %.12f J — not bit-identical",
				shards, rep.Joules, golden.Joules)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenEnergy runs acc+deg declared-cost tasks on one plain runtime and
// returns its frozen energy report.
func goldenEnergy(t *testing.T, acc, deg int64, costAcc, costDeg float64) sig.Report {
	t.Helper()
	rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyAccurate})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]sig.TaskSpec, 0, acc+deg)
	for i := int64(0); i < acc; i++ {
		specs = append(specs, sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: costAcc})
	}
	for i := int64(0); i < deg; i++ {
		specs = append(specs, sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: costDeg})
	}
	rt.SubmitBatch(nil, specs)
	rt.Wait(nil)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return rt.Energy()
}

// TestChaosWedgeWatchdog walks one wedged shard through the whole health
// state machine: a task wedged on the injector's gate holds shard 0's
// worker, the wave-latency watchdog strikes it each merged wave — suspect,
// then quarantined, then auto-drained — while the sibling shards keep
// serving. Opening the gate lets the drain finish, AddShard rejoins the
// slot, and nothing is lost.
func TestChaosWedgeWatchdog(t *testing.T) {
	in := NewInjector(1, Config{WedgeEvery: 1})
	r, err := shard.New(shard.Config{
		Shards:      3,
		Runtime:     sig.Config{Workers: 1},
		WaveTimeout: 10 * time.Millisecond,
		// Defaults: suspect after 1 strike, quarantine after 2, drain
		// after 4.
	})
	if err != nil {
		t.Fatal(err)
	}
	g := r.Group("wedge", 1.0)
	// On a fresh router the n-th task goes to slot n mod 3, skipping
	// unroutable slots. The wedged task is task 0, on slot 0. The healthy
	// tasks of the first two waves, 1 and 2, go to slots 1 and 2 while slot
	// 0 is still routable (live, then suspect); once it is quarantined,
	// task 3 skips it for slot 1.
	r.Submit(g, in.Wrap(sig.TaskSpec{
		Fn: func() {}, Significance: 1.0, HasCost: true, CostAccurate: 100,
	}))
	healthyRan := 0
	healthyWave := func() {
		r.Submit(g, sig.TaskSpec{
			Fn: func() { healthyRan++ }, Significance: 1.0, HasCost: true, CostAccurate: 200,
		})
		r.WaitPhase(g)
	}

	healthyWave() // strike 1: suspect
	if got := r.Health(0); got != shard.HealthSuspect {
		t.Fatalf("after 1 missed wave: health %v, want suspect", got)
	}
	healthyWave() // strike 2: quarantined
	if got := r.Health(0); got != shard.HealthQuarantined {
		t.Fatalf("after 2 missed waves: health %v, want quarantined", got)
	}
	if routable := r.Routable(); routable != 2 {
		t.Fatalf("quarantined shard still routable: %d routable, want 2", routable)
	}
	healthyWave() // strike 3
	healthyWave() // strike 4: auto-drain fires (async: the shard is wedged)
	deadline := time.Now().Add(2 * time.Second)
	for r.Health(0) != shard.HealthDrained {
		if time.Now().After(deadline) {
			t.Fatal("auto-drain never marked shard 0 down")
		}
		time.Sleep(time.Millisecond)
	}
	// The drain cannot finish while the task is wedged, so the slot is not
	// reusable yet.
	if _, err := r.AddShard(); !errors.Is(err, shard.ErrShardDraining) {
		t.Fatalf("AddShard during wedged drain: %v, want ErrShardDraining", err)
	}
	// Every healthy task of the four waves landed on a healthy slot: the
	// wedged shard holds its one wedged task and nothing queued behind it.
	if n := g.Part(0).Stats().Submitted; n != 1 {
		t.Fatalf("wedged shard was handed %d tasks, want only the wedged one", n)
	}

	in.Open()
	var slot int
	for {
		slot, err = r.AddShard()
		if err == nil {
			break
		}
		if !errors.Is(err, shard.ErrShardDraining) {
			t.Fatalf("AddShard after gate opened: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never completed after the gate opened")
		}
		time.Sleep(time.Millisecond)
	}
	if slot != 0 {
		t.Fatalf("rejoined slot %d, want the drained slot 0", slot)
	}
	if got := r.Health(0); got != shard.HealthLive {
		t.Fatalf("rejoined shard health %v, want live", got)
	}
	if live, routable := r.Live(), r.Routable(); live != 3 || routable != 3 {
		t.Fatalf("after rejoin: live %d routable %d, want 3/3", live, routable)
	}

	// The wedged wave's late stats fold into a later merge; in the end the
	// account balances.
	healthyWave()
	healthyWave()
	gs := g.Stats()
	if gs.Submitted != int64(healthyRan)+1 {
		t.Fatalf("submitted %d, want %d", gs.Submitted, healthyRan+1)
	}
	if decided := gs.Accurate + gs.Approximate + gs.Dropped; decided != gs.Submitted {
		t.Fatalf("%d submitted, %d decided — chaos lost work", gs.Submitted, decided)
	}
	if w := in.Wedged(); w != 1 {
		t.Fatalf("wedged %d tasks, want 1", w)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPanicInjection proves the panic injector against a fleet running
// with RecoverPanics: every planted panic is absorbed, still counted in the
// decision totals, and still charged its declared cost — modeled energy
// stays deterministic under faults.
func TestChaosPanicInjection(t *testing.T) {
	// Seed 0 → phase 0: indices 0,3,6,…,27 panic → 10 of 30.
	in := NewInjector(0, Config{PanicEvery: 3})
	r, err := shard.New(shard.Config{
		Shards:  2,
		Runtime: sig.Config{Workers: 1, RecoverPanics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := r.Group("panic", 1.0)
	var ran atomic.Int64
	const n, cost = 30, 1000.0
	for i := 0; i < n; i++ {
		r.Submit(g, in.Wrap(sig.TaskSpec{
			Fn:           func() { ran.Add(1) },
			Significance: 1.0,
			HasCost:      true, CostAccurate: cost,
		}))
	}
	r.Wait(g)
	if got := in.Panicked(); got != 10 {
		t.Fatalf("injected %d panics, want 10", got)
	}
	if got := r.Panics(); got != in.Panicked() {
		t.Fatalf("fleet absorbed %d panics, injector planted %d", got, in.Panicked())
	}
	if got := ran.Load(); got != n-10 {
		t.Fatalf("%d bodies completed, want %d", got, n-10)
	}
	gs := g.Stats()
	if gs.Accurate != n {
		t.Fatalf("accurate count %d, want %d (panicked tasks still count)", gs.Accurate, n)
	}
	// Panic accounting survives a drain+rejoin (retired-incarnation sum).
	if err := r.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddShard(); err != nil {
		t.Fatal(err)
	}
	if got := r.Panics(); got != 10 {
		t.Fatalf("panics after rejoin %d, want 10", got)
	}
	rep := r.Energy()
	if want := time.Duration(n) * time.Duration(cost); rep.Busy != want {
		t.Fatalf("busy %v, want %v (panicked tasks charge their declared cost)", rep.Busy, want)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDelayInjection: delayed bodies push a shard's wave cut past the
// watchdog without wedging it; the late stats arrive on their own and fold
// into a later merged wave — a strike, not a loss.
func TestChaosDelayInjection(t *testing.T) {
	in := NewInjector(0, Config{DelayEvery: 1, Delay: 30 * time.Millisecond})
	r, err := shard.New(shard.Config{
		Shards:      2,
		Runtime:     sig.Config{Workers: 1},
		WaveTimeout: 5 * time.Millisecond,
		DrainAfter:  -1, // never auto-drain: this test watches recovery
	})
	if err != nil {
		t.Fatal(err)
	}
	g := r.Group("delay", 1.0)
	// A fresh router's first task goes to slot 0.
	r.Submit(g, in.Wrap(sig.TaskSpec{
		Fn: func() {}, Significance: 1.0, HasCost: true, CostAccurate: 100,
	}))
	if n := g.Part(0).Stats().Submitted; n != 1 {
		t.Fatalf("slot 0 was handed %d tasks, want the delayed one", n)
	}
	r.WaitPhase(g)
	if got := r.Health(0); got != shard.HealthSuspect {
		t.Fatalf("delayed shard health %v, want suspect", got)
	}
	// Give the delayed cut time to land, then merge it: the shard is
	// healthy again.
	time.Sleep(50 * time.Millisecond)
	r.WaitPhase(g)
	if got := r.Health(0); got != shard.HealthLive {
		t.Fatalf("recovered shard health %v, want live", got)
	}
	if got := in.Delayed(); got != 1 {
		t.Fatalf("delayed %d tasks, want 1", got)
	}
	gs := g.Stats()
	if gs.Accurate != 1 {
		t.Fatalf("accurate %d, want 1 — the late task's stats must not be lost", gs.Accurate)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleReplayable: the surgery plan is a pure function of the seed.
func TestScheduleReplayable(t *testing.T) {
	a := Schedule(42, 16, 4, 2)
	b := Schedule(42, 16, 4, 2)
	if len(a) != len(b) {
		t.Fatalf("same seed, different plan lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, plans diverge at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("16-wave plan came out empty; widen the op weights")
	}
}
