package sig

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// submitBatch submits n tasks with significances cycling over nine levels
// in (0,1) and returns the group plus a record of which ran accurately.
func submitBatch(t *testing.T, rt *Runtime, n int, ratio float64) (*Group, []bool) {
	t.Helper()
	grp := rt.Group("batch", ratio)
	accurate := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		rt.Submit(
			func() { accurate[i] = true },
			WithLabel(grp),
			WithSignificance(float64(i%9+1)/10),
			WithApprox(func() {}),
			WithCost(100, 10),
		)
	}
	return grp, accurate
}

func newRT(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1 // deterministic decision order for policy tests
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestEnergyStableAfterClose is the regression test for the documented
// contract that Energy() is valid and stable after Close (rt.Close(); rep :=
// rt.Energy()).
func TestEnergyStableAfterClose(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	_, _ = submitBatch(t, rt, 50, 0.5)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rep1 := rt.Energy()
	time.Sleep(5 * time.Millisecond)
	rep2 := rt.Energy()
	if rep1 != rep2 {
		t.Errorf("Energy() not stable after Close: first %+v, then %+v", rep1, rep2)
	}
	if rep1.Joules <= 0 {
		t.Errorf("expected positive modeled energy, got %v", rep1.Joules)
	}
	// With declared costs the energy account is exact: 25 accurate
	// (cost 100) + 25 approximate (cost 10) at ActiveWatts per ns.
	wantBusy := time.Duration(25*100 + 25*10)
	if rep1.Busy != wantBusy {
		t.Errorf("modeled busy = %v, want %v", rep1.Busy, wantBusy)
	}
}

// TestBusyAccountSaturates: costs just under 2^63 are each accountable, but
// two of them wrapped the int64 busy account negative (two in one chunk, or
// one more added to a clock already near the top). The account saturates at
// math.MaxInt64 instead, through the chunk sum, the clock add and the sum
// over clocks.
func TestBusyAccountSaturates(t *testing.T) {
	rt := newRT(t, Config{Workers: 1})
	c := math.Nextafter(1<<63, 0)
	for range 2 {
		for range 2 {
			rt.Submit(func() {}, WithSignificance(1.0), WithCost(c, 0))
		}
		rt.Wait(nil)
		if rep := rt.Energy(); rep.Busy != math.MaxInt64 || !(rep.Joules > 0) {
			t.Fatalf("busy %d ns, %v J: want the account saturated at MaxInt64", int64(rep.Busy), rep.Joules)
		}
	}
}

// TestPolicyRatioCompliance checks requested-vs-provided accurate ratios
// for every built-in policy.
func TestPolicyRatioCompliance(t *testing.T) {
	const n = 450
	cases := []struct {
		name      string
		cfg       Config
		ratio     float64
		want      float64
		tolerance float64
	}{
		{"Accurate", Config{Policy: PolicyAccurate}, 0.3, 1.0, 0},
		{"GTBMax-0.3", Config{Policy: PolicyGTBMaxBuffer}, 0.3, 0.3, 1.0 / n},
		{"GTBMax-0.6", Config{Policy: PolicyGTBMaxBuffer}, 0.6, 0.6, 1.0 / n},
		{"GTB-0.3", Config{Policy: PolicyGTB, GTBWindow: 32}, 0.3, 0.3, 0.02},
		{"GTB-0.6", Config{Policy: PolicyGTB, GTBWindow: 8}, 0.6, 0.6, 0.02},
		{"Perforation-0.3", Config{Policy: PolicyPerforation}, 0.3, 0.3, 0.02},
		{"LQH-0.3", Config{Policy: PolicyLQH}, 0.3, 0.3, 0.15},
		{"LQH-0.6", Config{Policy: PolicyLQH}, 0.6, 0.6, 0.15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t, tc.cfg)
			defer rt.Close()
			grp, _ := submitBatch(t, rt, n, tc.ratio)
			provided := rt.Wait(grp)
			if math.Abs(provided-tc.want) > tc.tolerance+1e-9 {
				t.Errorf("%s: requested ratio %.2f, provided %.3f (tolerance %.3f)",
					tc.name, tc.ratio, provided, tc.tolerance)
			}
		})
	}
}

// TestGTBMaxPicksTopSignificance checks the max-buffering policy is the
// significance oracle: exactly the most significant tasks run accurately.
func TestGTBMaxPicksTopSignificance(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	const n = 90 // 10 tasks per significance level
	grp, accurate := submitBatch(t, rt, n, 0.3)
	rt.Wait(grp)
	// ratio 0.3 of 90 = 27 accurate slots; levels 0.9 and 0.8 fill 20,
	// level 0.7 takes the remaining 7 (lowest Seq first).
	for i := 0; i < n; i++ {
		level := float64(i%9+1) / 10
		switch {
		case level >= 0.8 && !accurate[i]:
			t.Errorf("task %d (sig %.1f) should be accurate", i, level)
		case level <= 0.6 && accurate[i]:
			t.Errorf("task %d (sig %.1f) should be approximate", i, level)
		}
	}
}

// TestSpecialSignificanceValues: 1.0 must always run accurately and 0.0
// always approximately, whatever the policy and ratio ask.
func TestSpecialSignificanceValues(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation} {
		rt := newRT(t, Config{Policy: kind})
		grp := rt.Group("special", 0.5)
		var ranAcc, ranApprox bool
		rt.Submit(func() { ranAcc = true }, WithLabel(grp),
			WithSignificance(1.0), WithApprox(func() {}))
		rt.Submit(func() {}, WithLabel(grp),
			WithSignificance(0.0), WithApprox(func() { ranApprox = true }))
		rt.Wait(grp)
		rt.Close()
		if !ranAcc {
			t.Errorf("%v: significance 1.0 did not run accurately", kind)
		}
		if !ranApprox {
			t.Errorf("%v: significance 0.0 did not run approximately", kind)
		}
	}
}

// TestWaitReturnsProvidedRatio checks Wait's return value matches Stats.
func TestWaitReturnsProvidedRatio(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	grp, _ := submitBatch(t, rt, 100, 0.4)
	provided := rt.Wait(grp)
	st := rt.Stats()
	for _, g := range st.Groups {
		if g.Name != "batch" {
			continue
		}
		if math.Abs(g.ProvidedRatio-provided) > 1e-9 {
			t.Errorf("Wait returned %.3f but Stats says %.3f", provided, g.ProvidedRatio)
		}
		if g.Accurate != 40 {
			t.Errorf("expected 40 accurate of 100, got %d", g.Accurate)
		}
	}
}

// TestApproxWithoutBodyIsSkipped: a task selected for approximation without
// an approximate body must be skipped without running anything, and the
// skip is the model's task dropping — counted dropped, never approximate.
func TestApproxWithoutBodyIsSkipped(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	grp := rt.Group("skip", 0.0)
	ran := false
	rt.Submit(func() { ran = true }, WithLabel(grp), WithSignificance(0.5))
	rt.Wait(grp)
	if ran {
		t.Error("task without approx body ran accurately despite ratio 0")
	}
	st := rt.Stats()
	if st.Dropped != 1 || st.Approximate != 0 {
		t.Errorf("skipped task must count as dropped: got %+v", st)
	}
}

// TestSkippedTaskCostsZeroJoules is the regression test for the energy
// accounting of body-less approximate decisions: no code runs, so nothing
// may be charged to the modeled energy account — whatever approximate cost
// the task declared. With declared costs the report is exact, so the busy
// account must show only the accurate task's cost.
func TestSkippedTaskCostsZeroJoules(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	grp := rt.Group("skip", 0.0)
	// One unconditionally accurate task (cost 100) and three skipped ones
	// that declare a non-zero approximate cost but carry no body.
	rt.Submit(func() {}, WithLabel(grp), WithSignificance(1.0), WithCost(100, 40))
	for i := 0; i < 3; i++ {
		rt.Submit(func() {}, WithLabel(grp), WithSignificance(0.5), WithCost(100, 40))
	}
	rt.Wait(grp)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rep := rt.Energy()
	if want := time.Duration(100); rep.Busy != want {
		t.Errorf("modeled busy = %v, want %v: skipped tasks were charged for work that never ran", rep.Busy, want)
	}
	st := rt.Stats()
	if st.Accurate != 1 || st.Dropped != 3 || st.Approximate != 0 {
		t.Errorf("accounting %d/%d/%d (acc/approx/drop), want 1/0/3",
			st.Accurate, st.Approximate, st.Dropped)
	}
}

// TestSubmitOnClosedRuntimeReleasesTask: Submit carves its *Task from a slab
// before the closed check panics; the failed call must count the task toward
// its slab's completions instead of leaking it — a slab with a task that never
// completes is never recycled.
func TestSubmitOnClosedRuntimeReleasesTask(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyAccurate})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// The runtime never ran a task, so every slab seen here is fresh and only
	// this goroutine carves from it. Under -race sync.Pool drops some Puts, so
	// the open slab may change between calls: account per slab.
	carved := map[*taskSlab]int32{}
	spy := func(task *Task) { carved[task.slab]++ }
	for i := 0; i < slabSize/2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Submit on closed runtime did not panic")
				}
			}()
			rt.Submit(func() {}, spy)
		}()
	}
	for s, n := range carved {
		if done := s.done.Load(); done != n || s.used != int(n) {
			t.Errorf("slab handed out %d tasks (%d seen) to panicking Submits, %d released", s.used, n, done)
		}
	}
	if st := rt.Stats(); st.Submitted != 0 {
		t.Errorf("panicking Submits counted %d submitted tasks", st.Submitted)
	}
}

// TestSubmitBatchNilBodyValidatedUpfront: a nil Fn anywhere in the batch
// must panic before any task of the batch is dispatched or any slab drawn.
func TestSubmitBatchNilBodyValidatedUpfront(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyAccurate})
	defer rt.Close()
	g := rt.Group("batch", 1.0)
	ran := false
	specs := make([]TaskSpec, 80)
	for i := range specs {
		specs[i] = TaskSpec{Fn: func() { ran = true }}
	}
	specs[77].Fn = nil // in the second slab chunk
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SubmitBatch with nil body did not panic")
			}
		}()
		rt.SubmitBatch(g, specs)
	}()
	rt.Wait(g)
	if ran {
		t.Error("tasks of a rejected batch were dispatched")
	}
	if st := rt.Stats(); st.Submitted != 0 {
		t.Errorf("rejected batch counted %d submitted tasks", st.Submitted)
	}
}

// TestGroupStatsCounterWidth pins the counter snapshots to 64 bits: the
// assignments below stop compiling if a field is narrowed back to int, and
// the runtime check exercises values past 2^32 as a long-running 32-bit
// serving process would reach them.
func TestGroupStatsCounterWidth(t *testing.T) {
	var gs GroupStats
	var st Stats
	var _ int64 = gs.Submitted
	var _ int64 = gs.Accurate
	var _ int64 = gs.Approximate
	var _ int64 = gs.Dropped
	var _ int64 = st.Submitted
	var _ int64 = st.Accurate
	var _ int64 = st.Approximate
	var _ int64 = st.Dropped

	rt := newRT(t, Config{Policy: PolicyAccurate})
	defer rt.Close()
	g := rt.Group("wide", 1.0)
	const big = int64(5) << 32
	g.submitted.Store(big + 3)
	g.accurate.Store(big)
	g.approximate.Store(2)
	g.dropped.Store(1)
	snap := rt.Stats()
	got := snap.Groups[0]
	if got.Submitted != big+3 || got.Accurate != big || got.Approximate != 2 || got.Dropped != 1 {
		t.Errorf("Stats truncated 64-bit counters: %+v", got)
	}
	if snap.Submitted != big+3 || snap.Accurate != big {
		t.Errorf("runtime-wide totals truncated: %+v", snap)
	}
}

// TestPerforationDropsAreCounted: perforation must drop, not approximate.
func TestPerforationDropsAreCounted(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyPerforation})
	defer rt.Close()
	grp, _ := submitBatch(t, rt, 100, 0.25)
	rt.Wait(grp)
	st := rt.Stats()
	g := st.Groups[0]
	if g.Accurate != 25 || g.Dropped != 75 || g.Approximate != 0 {
		t.Errorf("perforation at 0.25 over 100 tasks: got %d accurate / %d approx / %d dropped",
			g.Accurate, g.Approximate, g.Dropped)
	}
}

// TestDefaultGroupKeepsConfiguredRatio: unlabeled submissions and Wait(nil)
// must not reset a ratio the user set on the default group.
func TestDefaultGroupKeepsConfiguredRatio(t *testing.T) {
	rt := newRT(t, Config{Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	rt.Group("", 0.5)
	var n atomic.Int64 // the worker and the taskwait both run bodies
	for i := 0; i < 10; i++ {
		rt.Submit(func() { n.Add(1) }, WithSignificance(float64(i%9+1)/10), WithApprox(func() {}))
	}
	provided := rt.Wait(nil)
	if math.Abs(provided-0.5) > 1e-9 {
		t.Errorf("default-group ratio 0.5 not honored: provided %.2f", provided)
	}
	if n.Load() != 5 {
		t.Errorf("expected 5 accurate executions, got %d", n.Load())
	}
}

// TestCustomPolicyPlugsIn: Config.NewPolicy overrides the built-ins without
// touching the scheduler.
func TestCustomPolicyPlugsIn(t *testing.T) {
	rt := newRT(t, Config{NewPolicy: func(g *Group) Policy { return accuratePolicy{} }})
	defer rt.Close()
	grp, accurate := submitBatch(t, rt, 20, 0.0)
	rt.Wait(grp)
	for i, acc := range accurate {
		if !acc {
			t.Errorf("custom always-accurate policy: task %d ran approximately", i)
		}
	}
}
