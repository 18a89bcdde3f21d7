package shard

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/sig"
)

// Cross-shard invariant suite: for every sig policy under randomized
// scenarios, sharding must preserve the single-runtime
// contracts globally:
//
//  1. global conservation — the merged Stats satisfy submitted = accurate +
//     approximate + dropped, agree with the instrumented task bodies, and
//     equal the sum of the per-shard snapshots — no task is lost or
//     double-counted by routing;
//  2. specials — significance-1.0 tasks run accurately and 0.0 tasks never
//     do, on whatever shard they landed;
//  3. ratio floor — the merged provided ratio over policy-decided tasks is
//     at least the global requested ratio minus the per-policy slack,
//     summed across shard-local quota epochs (each shard rounds its own
//     windows, so the slack scales with shards × waves); the per-shard trim
//     controllers may only raise it;
//  4. energy additivity — with every task forced accurate, the router's
//     merged joules are bit-identical to a single runtime executing the
//     same stream: the merge sums busy nanoseconds exactly (integer) and
//     multiplies once, so no float reassociation can leak in.
//
// Scenarios are generated from fixed seeds; tolerances are
// scheduling-independent, so the suite also passes under -race.

// shardScenario is one randomized cross-shard property case.
type shardScenario struct {
	shards   int
	kind     sig.PolicyKind
	workers  int // per shard
	ratio    float64
	sigs     []float64
	batch    bool
	waves    int
	noApprox int // omit the approximate body from every noApprox-th task
}

func (sc shardScenario) hasApprox(i int) bool {
	return sc.noApprox == 0 || i%sc.noApprox != 0
}

// shardRatioSlack bounds how far below the global requested ratio the
// merged provided ratio may land over n policy-decided tasks. Per-shard
// quota epochs (waves) each round independently, so the single-runtime
// slack of sig's invariant suite scales by the shard count for the
// epoch-rounding policies.
func shardRatioSlack(kind sig.PolicyKind, shards, workersPerShard, waves, n int) float64 {
	if n == 0 {
		return 0
	}
	epochs := float64(max(waves, 1) * shards)
	switch kind {
	case sig.PolicyAccurate:
		return 0
	case sig.PolicyGTB, sig.PolicyGTBMaxBuffer:
		// Round-to-nearest plus one task of clamped window carry, per
		// shard-local wave epoch.
		return 2.0 * epochs / float64(n)
	case sig.PolicyPerforation:
		// One task of error-diffusion residue per shard (the accumulators
		// are shard-local), plus fixed-point quantization.
		return 1.5 * float64(shards) / float64(n)
	case sig.PolicyLQH:
		// Per-worker drift correctors, now workers × shards of them.
		return 0.1 + float64(workersPerShard*shards)/float64(n) + 1e-9
	}
	panic("unreachable")
}

// runShardScenario executes the scenario through a Router and returns the
// instrumented outcome, the merged group stats and Wait's provided ratio.
func runShardScenario(t *testing.T, sc shardScenario) ([]atomic.Bool, []atomic.Bool, sig.GroupStats, float64) {
	t.Helper()
	r, err := New(Config{
		Shards:  sc.shards,
		Runtime: sig.Config{Workers: sc.workers, Policy: sc.kind},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("inv", sc.ratio)
	n := len(sc.sigs)
	ranAcc := make([]atomic.Bool, n)
	ranApx := make([]atomic.Bool, n)

	waves := max(sc.waves, 1)
	per := (n + waves - 1) / waves
	provided := math.NaN()
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		specs := make([]sig.TaskSpec, 0, hi-lo)
		for i := lo; i < hi; i++ {
			i := i
			s := sc.sigs[i]
			if s == 0 {
				s = -1 // batch spelling of the special 0.0
			}
			spec := sig.TaskSpec{
				Fn:           func() { ranAcc[i].Store(true) },
				Significance: s,
				HasCost:      true, CostAccurate: 10, CostApprox: 1,
			}
			if sc.hasApprox(i) {
				spec.Approx = func() { ranApx[i].Store(true) }
			}
			specs = append(specs, spec)
		}
		if sc.batch {
			r.SubmitBatch(g, specs)
		} else {
			for _, spec := range specs {
				r.Submit(g, spec)
			}
		}
		provided = r.Wait(g)
	}
	return ranAcc, ranApx, g.Stats(), provided
}

// checkShardInvariants asserts the cross-shard contracts; shared with
// FuzzShardRouting.
func checkShardInvariants(t *testing.T, sc shardScenario, r *Router, g *Group, ranAcc, ranApx []atomic.Bool, gs sig.GroupStats, provided float64) {
	t.Helper()
	n := len(sc.sigs)

	// 1. Global conservation, against both the bodies and the shard sum.
	if gs.Submitted != int64(n) {
		t.Errorf("merged submitted %d, want %d", gs.Submitted, n)
	}
	if got := gs.Accurate + gs.Approximate + gs.Dropped; got != gs.Submitted {
		t.Errorf("merged decided %d (acc %d + approx %d + drop %d) != submitted %d",
			got, gs.Accurate, gs.Approximate, gs.Dropped, gs.Submitted)
	}
	acc, apx, drop := int64(0), int64(0), int64(0)
	for i := range sc.sigs {
		switch {
		case ranAcc[i].Load() && ranApx[i].Load():
			t.Fatalf("task %d ran both bodies", i)
		case ranAcc[i].Load():
			acc++
		case ranApx[i].Load():
			apx++
		default:
			drop++
		}
	}
	if acc != gs.Accurate || apx != gs.Approximate || drop != gs.Dropped {
		t.Errorf("bodies ran %d/%d/%d but merged Stats says %d/%d/%d",
			acc, apx, drop, gs.Accurate, gs.Approximate, gs.Dropped)
	}
	if r != nil && g != nil {
		var sum sig.GroupStats
		for i := 0; i < r.Shards(); i++ {
			ps := g.Part(i).Stats()
			sum.Submitted += ps.Submitted
			sum.Accurate += ps.Accurate
			sum.Approximate += ps.Approximate
			sum.Dropped += ps.Dropped
		}
		if sum.Submitted != gs.Submitted || sum.Accurate != gs.Accurate ||
			sum.Approximate != gs.Approximate || sum.Dropped != gs.Dropped {
			t.Errorf("shard sum %+v disagrees with merge %+v", sum, gs)
		}
	}

	// 2. Specials hold on whatever shard the task landed.
	for i, s := range sc.sigs {
		if s >= 1.0 && !ranAcc[i].Load() {
			t.Errorf("significance-1.0 task %d did not run accurately", i)
		}
		if s <= 0.0 && ranAcc[i].Load() {
			t.Errorf("significance-0.0 task %d ran accurately", i)
		}
	}

	// 3. Merged ratio floor over policy-decided tasks.
	decided, decidedAcc := 0, 0
	for i, s := range sc.sigs {
		if s > 0 && s < 1 {
			decided++
			if ranAcc[i].Load() {
				decidedAcc++
			}
		}
	}
	if decided > 0 {
		prov := float64(decidedAcc) / float64(decided)
		floor := sc.ratio - shardRatioSlack(sc.kind, sc.shards, sc.workers, sc.waves, decided)
		if prov < floor-1e-9 {
			t.Errorf("%v at %d shards: merged provided ratio %.4f over %d policy-decided tasks below requested %.4f (slack floor %.4f)",
				sc.kind, sc.shards, prov, decided, sc.ratio, floor)
		}
	}

	// 4. Wait's merged return value is sane and matches the merged Stats.
	if math.IsNaN(provided) {
		t.Errorf("Wait returned NaN")
	}
	if math.Abs(provided-gs.ProvidedRatio) > 1e-9 {
		t.Errorf("Wait returned %.4f but merged Stats says %.4f", provided, gs.ProvidedRatio)
	}
}

// TestShardInvariants is the cross-shard property suite entry point: every
// sig policy, randomized streams, 1/2/8 shards.
func TestShardInvariants(t *testing.T) {
	kinds := []sig.PolicyKind{sig.PolicyAccurate, sig.PolicyGTB, sig.PolicyGTBMaxBuffer, sig.PolicyLQH, sig.PolicyPerforation}
	ratios := []float64{0, 0.1, 0.33, 0.5, 0.77, 1}
	shardCounts := []int{1, 2, 8}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for trial := 0; trial < 9; trial++ {
				r := rand.New(rand.NewSource(int64(9000*int(kind) + trial)))
				n := 150 + r.Intn(350)
				sigs := make([]float64, n)
				for i := range sigs {
					switch r.Intn(5) {
					case 0:
						sigs[i] = 0.0
					case 1:
						sigs[i] = 1.0
					default:
						sigs[i] = r.Float64()
					}
				}
				sc := shardScenario{
					shards:   shardCounts[trial%len(shardCounts)],
					kind:     kind,
					workers:  1 + r.Intn(3),
					ratio:    ratios[r.Intn(len(ratios))],
					sigs:     sigs,
					batch:    trial%2 == 1,
					waves:    1 + r.Intn(3),
					noApprox: []int{0, 0, 2, 3}[r.Intn(4)],
				}
				// The name records the placement too: every trial spreads
				// its stream round-robin, the router's only placement.
				name := fmt.Sprintf("trial%02d-%dx-round-robin-r%.2f-batch%v", trial, sc.shards, sc.ratio, sc.batch)
				t.Run(name, func(t *testing.T) {
					ranAcc, ranApx, gs, provided := runShardScenario(t, sc)
					checkShardInvariants(t, sc, nil, nil, ranAcc, ranApx, gs, provided)
				})
			}
		})
	}
}

// TestShardEnergyAdditivity pins invariant 4 exactly: a forced-accurate
// stream with declared costs produces bit-identical merged joules at 1, 2, 4
// and 8 shards — equal to the single-runtime golden — because the merge
// sums busy nanoseconds as integers and multiplies by the wattage once.
// The busy-ns totals are compared too: additivity must hold in the exact
// domain, not just after rounding.
func TestShardEnergyAdditivity(t *testing.T) {
	const n = 500
	costs := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range costs {
		costs[i] = float64(10 + rng.Intn(100_000))
	}
	stream := func() []sig.TaskSpec {
		specs := make([]sig.TaskSpec, n)
		for i := range specs {
			specs[i] = sig.TaskSpec{
				Fn:      func() {},
				HasCost: true, CostAccurate: costs[i], CostApprox: 0,
			}
		}
		return specs
	}

	// Single-runtime golden.
	rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyAccurate})
	if err != nil {
		t.Fatal(err)
	}
	rt.SubmitBatch(nil, stream())
	rt.Wait(nil)
	rt.Close()
	golden := rt.Energy()
	if golden.Busy == 0 {
		t.Fatal("golden run accrued no busy time")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		r, err := New(Config{
			Shards:  shards,
			Runtime: sig.Config{Workers: 2, Policy: sig.PolicyAccurate},
		})
		if err != nil {
			t.Fatal(err)
		}
		g := r.Group("e", 1.0)
		r.SubmitBatch(g, stream())
		ws := r.WaitPhase(g)
		r.Close()
		rep := r.Energy()
		if rep.Busy != golden.Busy {
			t.Errorf("%d shards: merged busy %v != golden %v (exact integer sum broken)",
				shards, rep.Busy, golden.Busy)
		}
		if math.Float64bits(rep.Joules) != math.Float64bits(golden.Joules) {
			t.Errorf("%d shards: merged joules %v not bit-identical to golden %v",
				shards, rep.Joules, golden.Joules)
		}
		if math.Float64bits(ws.Joules) != math.Float64bits(golden.Joules) {
			t.Errorf("%d shards: merged wave joules %v not bit-identical to golden %v",
				shards, ws.Joules, golden.Joules)
		}
	}
}
