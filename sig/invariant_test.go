package sig

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Policy-invariant property suite: for every built-in policy under
// randomized (significance distribution, ratio, worker count, batch/scalar
// submission) scenarios, the core contracts of the model must hold:
//
//  1. conservation — Stats totals satisfy submitted = accurate +
//     approximate + dropped, per group and runtime-wide; a task decided
//     approximate without an approximate body runs nothing and counts as
//     dropped (scenarios with noApprox > 0 exercise this);
//  2. specials — significance-1.0 tasks always run their accurate body and
//     are never dropped; significance-0.0 tasks never run accurately;
//  3. ratio floor — over the policy-decided tasks (0 < sig < 1), the
//     provided accurate fraction is at least the requested ratio, minus the
//     policy's documented slack (rounding for the buffering policies,
//     error-diffusion residue for perforation, the drift-corrector band
//     for LQH);
//  4. Wait returns a non-NaN ratio consistent with Stats.
//
// Scenarios are generated from fixed seeds, so the suite is deterministic;
// the tolerances below are scheduling-independent bounds, so it also passes
// under -race at any worker count. FuzzPolicyDecisions feeds adversarial
// variants of the same scenario shape through the same checker.

// invScenario is one randomized property-test case.
type invScenario struct {
	kind      PolicyKind
	workers   int
	ratio     float64
	sigs      []float64
	batch     bool
	waves     int // number of taskwait boundaries the stream is cut into
	gtbWindow int
	// noApprox > 0 omits the approximate body from every noApprox-th task
	// (index i with i%noApprox == 0): an approximate decision on such a
	// task is the model's task dropping and must be counted dropped.
	noApprox int
}

// hasApprox reports whether task i of the scenario carries an approximate
// body.
func (sc invScenario) hasApprox(i int) bool {
	return sc.noApprox == 0 || i%sc.noApprox != 0
}

// invOutcome records what actually ran, via instrumented task bodies.
type invOutcome struct {
	ranAcc []bool
	ranApx []bool
}

// ratioSlack returns the scenario's provided-ratio tolerance over n
// policy-decided tasks spread across the given number of taskwait waves:
// how far below the requested ratio the accurate fraction may legitimately
// land.
func ratioSlack(kind PolicyKind, workers, waves, n int) float64 {
	if n == 0 {
		return 0
	}
	switch kind {
	case PolicyAccurate:
		return 0
	case PolicyGTB, PolicyGTBMaxBuffer:
		// Each wave is an independent quota epoch since the Flush reset:
		// round-to-nearest (0.5) plus at most one task of clamped window
		// carry per wave.
		return 2.0 * float64(max(waves, 1)) / float64(n)
	case PolicyPerforation:
		// Error diffusion holds the accurate count within one task of
		// ratio*n (plus the 2^-32 fixed-point quantization).
		return 1.5 / float64(n)
	case PolicyLQH:
		// Each worker's drift corrector keeps its local accurate count
		// above (ratio-tolerance)*n_w - 1; summed over workers:
		// provided >= ratio - tolerance - workers/n.
		return lqhDriftTolerance + float64(workers)/float64(n) + 1e-9
	}
	panic("unreachable")
}

// runScenario executes the scenario and returns the outcome plus the final
// Stats snapshot of the group.
func runScenario(t *testing.T, sc invScenario) (invOutcome, GroupStats, float64) {
	t.Helper()
	rt, err := New(Config{
		Workers:   sc.workers,
		Policy:    sc.kind,
		GTBWindow: sc.gtbWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("inv", sc.ratio)
	n := len(sc.sigs)
	out := invOutcome{ranAcc: make([]bool, n), ranApx: make([]bool, n)}

	waves := max(sc.waves, 1)
	per := (n + waves - 1) / waves
	provided := math.NaN()
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		if sc.batch {
			specs := make([]TaskSpec, hi-lo)
			for i := lo; i < hi; i++ {
				i := i
				s := sc.sigs[i]
				if s == 0 {
					s = -1 // batch spelling of the special 0.0
				}
				specs[i-lo] = TaskSpec{
					Fn:           func() { out.ranAcc[i] = true },
					Significance: s,
					HasCost:      true, CostAccurate: 10, CostApprox: 1,
				}
				if sc.hasApprox(i) {
					specs[i-lo].Approx = func() { out.ranApx[i] = true }
				}
			}
			rt.SubmitBatch(g, specs)
		} else {
			for i := lo; i < hi; i++ {
				i := i
				opts := []TaskOption{
					WithLabel(g),
					WithSignificance(sc.sigs[i]),
					WithCost(10, 1),
				}
				if sc.hasApprox(i) {
					opts = append(opts, WithApprox(func() { out.ranApx[i] = true }))
				}
				rt.Submit(func() { out.ranAcc[i] = true }, opts...)
			}
		}
		provided = rt.Wait(g)
		// Completions retire per chunk, but the pending count goes last:
		// at every taskwait boundary the counters are exact, not trailing.
		if st := rt.Stats(); st.Submitted != int64(hi) || st.Accurate+st.Approximate+st.Dropped != int64(hi) {
			t.Fatalf("Stats after the taskwait at task %d: submitted %d, decided %d+%d+%d", hi, st.Submitted, st.Accurate, st.Approximate, st.Dropped)
		}
	}
	st := rt.Stats()
	return out, st.Groups[0], provided
}

// checkInvariants asserts the policy-invariant contracts on a completed
// scenario. It is shared with FuzzPolicyDecisions.
func checkInvariants(t *testing.T, sc invScenario, out invOutcome, gs GroupStats, provided float64) {
	t.Helper()
	n := len(sc.sigs)

	// 1. Conservation.
	if gs.Submitted != int64(n) {
		t.Errorf("submitted %d, want %d", gs.Submitted, n)
	}
	if got := gs.Accurate + gs.Approximate + gs.Dropped; got != gs.Submitted {
		t.Errorf("decided %d (acc %d + approx %d + drop %d) != submitted %d",
			got, gs.Accurate, gs.Approximate, gs.Dropped, gs.Submitted)
	}

	// Cross-check Stats against the instrumented bodies. A task that ran
	// neither body counts as dropped: either the policy dropped it, or it
	// was decided approximate while carrying no approximate body — the
	// model's task-dropping degradation, which the runtime must classify
	// as a drop, not an approximate execution.
	acc, apx, drop := int64(0), int64(0), int64(0)
	for i := range sc.sigs {
		switch {
		case out.ranAcc[i] && out.ranApx[i]:
			t.Fatalf("task %d ran both bodies", i)
		case out.ranAcc[i]:
			acc++
		case out.ranApx[i]:
			apx++
		default:
			drop++
		}
	}
	if acc != gs.Accurate || apx != gs.Approximate || drop != gs.Dropped {
		t.Errorf("bodies ran %d/%d/%d but Stats says %d/%d/%d",
			acc, apx, drop, gs.Accurate, gs.Approximate, gs.Dropped)
	}

	// 2. Special significance values.
	for i, s := range sc.sigs {
		if s >= 1.0 && !out.ranAcc[i] {
			t.Errorf("significance-1.0 task %d did not run accurately (dropped or approximated)", i)
		}
		if s <= 0.0 && out.ranAcc[i] {
			t.Errorf("significance-0.0 task %d ran accurately", i)
		}
	}

	// 3. Ratio floor over the policy-decided tasks.
	decided, decidedAcc := 0, 0
	for i, s := range sc.sigs {
		if s > 0 && s < 1 {
			decided++
			if out.ranAcc[i] {
				decidedAcc++
			}
		}
	}
	if decided > 0 {
		prov := float64(decidedAcc) / float64(decided)
		if floor := sc.ratio - ratioSlack(sc.kind, sc.workers, sc.waves, decided); prov < floor-1e-9 {
			t.Errorf("%v: provided ratio %.4f over %d policy-decided tasks below requested %.4f (slack floor %.4f)",
				sc.kind, prov, decided, sc.ratio, floor)
		}
	}

	// 4. Wait's return value is sane and matches Stats.
	if math.IsNaN(provided) {
		t.Errorf("Wait returned NaN")
	}
	if math.Abs(provided-gs.ProvidedRatio) > 1e-9 {
		t.Errorf("Wait returned %.4f but Stats says %.4f", provided, gs.ProvidedRatio)
	}
}

// sigDistributions are the significance generators the property suite
// mixes: each returns a value in [0,1], including the special endpoints.
var sigDistributions = []struct {
	name string
	gen  func(r *rand.Rand) float64
}{
	{"uniform", func(r *rand.Rand) float64 { return r.Float64() }},
	{"nine-levels", func(r *rand.Rand) float64 { return float64(r.Intn(9)+1) / 10 }},
	{"constant", func(r *rand.Rand) float64 { return 0.5 }},
	{"bimodal", func(r *rand.Rand) float64 {
		if r.Intn(2) == 0 {
			return 0.05 + 0.1*r.Float64()
		}
		return 0.85 + 0.1*r.Float64()
	}},
	{"with-specials", func(r *rand.Rand) float64 {
		switch r.Intn(4) {
		case 0:
			return 0.0
		case 1:
			return 1.0
		default:
			return r.Float64()
		}
	}},
}

// TestPolicyInvariants is the property suite entry point.
func TestPolicyInvariants(t *testing.T) {
	kinds := []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation}
	ratios := []float64{0, 0.1, 0.33, 0.5, 0.77, 1}
	workerCounts := []int{1, 2, 4, 16}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for trial := 0; trial < 12; trial++ {
				r := rand.New(rand.NewSource(int64(1000*int(kind) + trial)))
				dist := sigDistributions[trial%len(sigDistributions)]
				n := 120 + r.Intn(400)
				sigs := make([]float64, n)
				for i := range sigs {
					sigs[i] = dist.gen(r)
				}
				sc := invScenario{
					kind:      kind,
					workers:   workerCounts[r.Intn(len(workerCounts))],
					ratio:     ratios[r.Intn(len(ratios))],
					sigs:      sigs,
					batch:     trial%2 == 1,
					waves:     1 + r.Intn(4),
					gtbWindow: []int{0, 8, 64}[r.Intn(3)],
					noApprox:  []int{0, 0, 2, 3}[r.Intn(4)],
				}
				name := fmt.Sprintf("trial%02d-%s-r%.2f-w%d-batch%v", trial, dist.name, sc.ratio, sc.workers, sc.batch)
				t.Run(name, func(t *testing.T) {
					out, gs, provided := runScenario(t, sc)
					checkInvariants(t, sc, out, gs, provided)
				})
			}
		})
	}
}
