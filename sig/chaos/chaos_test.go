package chaos

import (
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
			if live := r.Live(); live != shards {
				t.Fatalf("%d shards: after replace %d: live %d, want %d", shards, j, live, shards)
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
