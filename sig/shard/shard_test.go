package shard

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/adapt"
)

// specStream builds n instrumented TaskSpecs with the given significance
// generator and declared costs; ranAcc/ranApx record which body ran.
func specStream(n int, sigOf func(i int) float64, ranAcc, ranApx []atomic.Bool) []sig.TaskSpec {
	specs := make([]sig.TaskSpec, n)
	for i := range specs {
		i := i
		s := sigOf(i)
		if s == 0 {
			s = -1 // batch spelling of the special 0.0
		}
		specs[i] = sig.TaskSpec{
			Fn:           func() { ranAcc[i].Store(true) },
			Approx:       func() { ranApx[i].Store(true) },
			Significance: s,
			HasCost:      true, CostAccurate: 10, CostApprox: 1,
		}
	}
	return specs
}

func nineLevels(i int) float64 { return float64(i%9+1) / 10 }

func TestRouterSurface(t *testing.T) {
	r, err := New(Config{Shards: 4, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != 4 || r.Energy().Workers != 4 {
		t.Fatalf("fleet shape: %d shards, %d workers", r.Shards(), r.Energy().Workers)
	}
	g := r.Group("web", 0.5)
	if g2 := r.Group("web", 0.8); g2 != g {
		t.Error("Group is not idempotent")
	}
	if g.Ratio() != 0.8 {
		t.Errorf("re-Group did not retarget the ratio: %v", g.Ratio())
	}
	g.SetRatio(0.5)

	const n = 120
	ranAcc := make([]atomic.Bool, n)
	ranApx := make([]atomic.Bool, n)
	for _, spec := range specStream(n, nineLevels, ranAcc, ranApx) {
		r.Submit(g, spec)
	}
	if prov := r.Wait(g); math.IsNaN(prov) || prov < 0 || prov > 1 {
		t.Errorf("merged provided ratio %v out of range", prov)
	}

	// Round-robin with a single submitter stripes exactly n/shards each.
	for i := 0; i < 4; i++ {
		if got := g.Part(i).Stats().Submitted; got != n/4 {
			t.Errorf("shard %d got %d tasks, want %d (round-robin)", i, got, n/4)
		}
	}
	gs := g.Stats()
	if gs.Submitted != n {
		t.Errorf("merged submitted %d, want %d", gs.Submitted, n)
	}
	if got := gs.Accurate + gs.Approximate + gs.Dropped; got != n {
		t.Errorf("merged decided %d, want %d", got, n)
	}
	st := r.Stats()
	if st.Submitted != n || len(st.Groups) != 1 {
		t.Errorf("router Stats %+v", st)
	}
	// ShardStats sum to the merge.
	var sum int64
	for _, s := range r.ShardStats() {
		sum += s.Submitted
	}
	if sum != n {
		t.Errorf("shard stats sum %d, want %d", sum, n)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	r, err := New(Config{}) // zero config = 1 shard
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 1 {
		t.Errorf("zero Shards resolved to %d", r.Shards())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestRouterDefaultGroup: the nil-group spelling mirrors the single
// runtime — submits and taskwaits resolve to the default group, which is
// created at ratio 1.0 on first use but never retargeted by a nil-group
// submit (a caller's r.Group("", 0.3) command must survive).
func TestRouterDefaultGroup(t *testing.T) {
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("", 0.3)
	var ran atomic.Int64
	r.Submit(nil, sig.TaskSpec{Fn: func() { ran.Add(1) }, HasCost: true, CostAccurate: 10})
	r.SubmitBatch(nil, []sig.TaskSpec{{Fn: func() { ran.Add(1) }, HasCost: true, CostAccurate: 10}})
	if got := g.Ratio(); got != 0.3 {
		t.Errorf("nil-group submit reset the default group's ratio to %v, want the commanded 0.3", got)
	}
	if ws := r.WaitPhase(nil); ws.Submitted != 2 {
		t.Errorf("WaitPhase(nil) drained %d tasks, want 2", ws.Submitted)
	}
	if ran.Load() != 2 {
		t.Errorf("%d bodies ran, want 2", ran.Load())
	}
	if prov := r.Wait(nil); math.IsNaN(prov) {
		t.Error("Wait(nil) returned NaN")
	}
}

// TestRouterNilBodyValidatedUpfront: a nil body must panic before anything
// is placed — no partial batch dispatched.
func TestRouterNilBodyValidatedUpfront(t *testing.T) {
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("", 1.0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SubmitBatch accepted a nil task body")
			}
		}()
		r.SubmitBatch(g, []sig.TaskSpec{{Fn: func() {}}, {}})
	}()
	if got := g.Stats().Submitted; got != 0 {
		t.Errorf("%d tasks of the invalid batch were dispatched", got)
	}
}

// TestStalledShardHoldsWave wedges one shard mid-wave (its task bodies block
// on a gate): the merged taskwait must not report completion early, the
// sibling shard must run its cut meanwhile, new work must queue behind the
// stall, and every task must be conserved once the gate opens.
func TestStalledShardHoldsWave(t *testing.T) {
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("stall", 1.0)

	gate := make(chan struct{})
	var stalled, fast atomic.Int64
	// On a fresh two-shard router the n-th task goes to shard n mod 2: the
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
	// The healthy shard runs its whole cut with the gate still shut: none of
	// its tasks queued behind the stall.
	for deadline := time.Now().Add(5 * time.Second); fast.Load() != 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("healthy shard ran %d bodies with its sibling stalled, want 8", fast.Load())
		}
	}
	// The next task's turn is the stalled shard's; it must queue, not vanish.
	r.Submit(g, sig.TaskSpec{
		Fn:      func() { stalled.Add(1) },
		HasCost: true, CostAccurate: 100, CostApprox: 0,
	})
	if got := g.Part(0).Stats().Submitted; got != 9 {
		t.Errorf("stalled shard holds %d tasks, want 9", got)
	}
	close(gate)
	<-done
	r.WaitPhase(g) // the straggler submitted after the Wait goroutine started

	if got := stalled.Load(); got != 9 {
		t.Errorf("stalled shard ran %d bodies, want 9", got)
	}
	gs := g.Stats()
	if gs.Submitted != 17 || gs.Accurate != 17 {
		t.Errorf("merged stats %+v after the stall, want 17 submitted and accurate", gs)
	}
}

// TestShardedWaveMerge checks the merged WaveStats arithmetic: counts sum,
// the requested ratio is the global command, and an empty wave reports the
// requested ratio as provided (no 0/0 artifact), like a single runtime.
func TestShardedWaveMerge(t *testing.T) {
	r, err := New(Config{Shards: 3, Runtime: sig.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("m", 0.6)
	const n = 90
	ranAcc := make([]atomic.Bool, n)
	ranApx := make([]atomic.Bool, n)
	r.SubmitBatch(g, specStream(n, nineLevels, ranAcc, ranApx))
	ws := r.WaitPhase(g)
	if ws.Submitted != n || ws.Decided() != n {
		t.Errorf("merged wave submitted %d decided %d, want %d", ws.Submitted, ws.Decided(), n)
	}
	if ws.RequestedRatio != 0.6 {
		t.Errorf("merged requested ratio %v, want the global command 0.6", ws.RequestedRatio)
	}
	if ws.Wave != 0 {
		t.Errorf("first merged wave indexed %d", ws.Wave)
	}
	empty := r.WaitPhase(g)
	if empty.Submitted != 0 || empty.Decided() != 0 {
		t.Errorf("empty wave carries tasks: %+v", empty)
	}
	if empty.ProvidedRatio != empty.RequestedRatio {
		t.Errorf("empty merged wave provided %v, want requested %v", empty.ProvidedRatio, empty.RequestedRatio)
	}
	if empty.Wave != 1 {
		t.Errorf("wave epoch did not advance: %d", empty.Wave)
	}
}

// laggingPolicy undershoots the requested ratio by half: the trim
// controller must detect the lag from wave telemetry and boost the shard.
type laggingPolicy struct{ g *sig.Group }

func (p *laggingPolicy) Submit(dst []*sig.Task, ts []sig.Task) []*sig.Task {
	// Run accurately only the top ratio/2 significance band: the provided
	// ratio lands at about half the request at any trim, so the lag never
	// closes and the trim integrator must rail at TrimMax.
	for i := range ts {
		t := &ts[i]
		if t.Significance >= 1-p.g.Ratio()/2 {
			t.Decision = sig.DecideAccurate
		} else {
			t.Decision = sig.DecideApprox
		}
		dst = append(dst, t)
	}
	return dst
}
func (p *laggingPolicy) Flush(dst []*sig.Task) []*sig.Task { return dst }
func (p *laggingPolicy) WorkerDecide(worker int, t *sig.Task) sig.Decision {
	return sig.DecideAccurate
}

// TestTrimBoostsLaggingShard: per-shard trim controllers integrate provided
// lag, stay within [0, TrimMax], and raise the physical ratio above the
// global command — never below it.
func TestTrimBoostsLaggingShard(t *testing.T) {
	r, err := New(Config{
		Shards: 2,
		Runtime: sig.Config{
			Workers:   1,
			NewPolicy: func(g *sig.Group) sig.Policy { return &laggingPolicy{g: g} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("lag", 0.5)
	const n = 100
	for wave := 0; wave < 6; wave++ {
		ranAcc := make([]atomic.Bool, n)
		ranApx := make([]atomic.Bool, n)
		r.SubmitBatch(g, specStream(n, func(i int) float64 { return float64(i%100)/100*0.98 + 0.01 }, ranAcc, ranApx))
		r.WaitPhase(g)
		for i := 0; i < 2; i++ {
			trim := g.trimOf(i)
			if trim < 0 || trim > DefaultTrimMax+1e-12 {
				t.Fatalf("wave %d shard %d trim %v outside [0, %v]", wave, i, trim, DefaultTrimMax)
			}
			if pr := g.Part(i).Ratio(); pr < g.Ratio()-1e-12 {
				t.Fatalf("wave %d shard %d physical ratio %v below the global command %v", wave, i, pr, g.Ratio())
			}
		}
	}
	// The lagging policy guarantees lag, so the integrators must have
	// railed at TrimMax by now.
	if g.trimOf(0) < DefaultTrimMax-1e-9 || g.trimOf(1) < DefaultTrimMax-1e-9 {
		t.Errorf("trims %v/%v did not integrate up to %v under persistent lag", g.trimOf(0), g.trimOf(1), DefaultTrimMax)
	}
}

// TestDeterministicShardedReplay is the sharded face of the adaptive
// replay contract: a full closed loop — router, GTB(max) shards, merged
// waves WaitPhase returns observed by an adapt.TargetEnergy controller —
// replays bit-identically (ratio trajectory, outcome counts, per-wave
// joules) at 1, 2 and 8 shards. Run under -race in CI.
func TestDeterministicShardedReplay(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		run := func() (trace []float64, joules []uint64, acc []int) {
			ctl, err := adapt.New(adapt.Config{
				Objective: adapt.TargetEnergy,
				Budget:    sig.DefaultActiveWatts * 400 * 1e-9, // ~half of full-accurate demand
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{
				Shards:  shards,
				Runtime: sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			g := r.Group("rep", 1.0)
			const n = 80
			for wave := 0; wave < 10; wave++ {
				ranAcc := make([]atomic.Bool, n)
				ranApx := make([]atomic.Bool, n)
				r.SubmitBatch(g, specStream(n, nineLevels, ranAcc, ranApx))
				ws := r.WaitPhase(g)
				ctl.Observe(g, ws)
				trace = append(trace, g.Ratio())
				joules = append(joules, math.Float64bits(ws.Joules))
				acc = append(acc, ws.Accurate)
			}
			return trace, joules, acc
		}
		t1, j1, a1 := run()
		t2, j2, a2 := run()
		for w := range t1 {
			if t1[w] != t2[w] || j1[w] != j2[w] || a1[w] != a2[w] {
				t.Fatalf("%d shards, wave %d diverged across identical runs: ratio %v/%v joules %x/%x accurate %d/%d",
					shards, w, t1[w], t2[w], j1[w], j2[w], a1[w], a2[w])
			}
		}
	}
}

// TestOneSlotRouterIsARuntime is why a one-slot router runs no trim
// controller: the same seeded stream — specials 0.0 and 1.0 included, in
// bursts that make the provided ratio lag the command — driven through a
// bare sig.Runtime observed by an adapt controller and through a one-slot
// Router whose WaitPhase result the same controller observes yields the same ratio
// trajectory, per-wave outcome counts and bit-identical joules. Trim exists
// to correct placement skew between shards; boosting a lone shard whose
// provided ratio lags on 0.0-significance traffic would make the router a
// different machine from the runtime it wraps.
func TestOneSlotRouterIsARuntime(t *testing.T) {
	type waveRec struct {
		ratio              float64
		acc, approx, drops int
		joules             uint64
	}
	const waves, n = 16, 80
	// stream is wave w's specs: an LCG picks each significance from
	// {0.0, 0.1, ..., 1.0}; odd waves turn two thirds of the stream into
	// 0.0-specials, which no ratio can run accurately.
	stream := func(w int) []sig.TaskSpec {
		seed := uint32(12345 + w)
		ranAcc, ranApx := make([]atomic.Bool, n), make([]atomic.Bool, n)
		return specStream(n, func(i int) float64 {
			seed = seed*1664525 + 1013904223
			if w%2 == 1 && i%3 != 0 {
				return 0
			}
			return float64(seed>>16%11) / 10
		}, ranAcc, ranApx)
	}
	newCtl := func() *adapt.Controller {
		ctl, err := adapt.New(adapt.Config{
			Objective: adapt.TargetEnergy,
			Budget:    sig.DefaultActiveWatts * 400 * 1e-9, // ~half of full-accurate demand
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	record := func(ratio float64, ws sig.WaveStats) waveRec {
		return waveRec{ratio, ws.Accurate, ws.Approximate, ws.Dropped, math.Float64bits(ws.Joules)}
	}
	rtCfg := sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer}

	var bare []waveRec
	{
		ctl := newCtl()
		rt, err := sig.New(rtCfg)
		if err != nil {
			t.Fatal(err)
		}
		g := rt.Group("rep", 1.0)
		for w := 0; w < waves; w++ {
			rt.SubmitBatch(g, stream(w))
			ws := rt.WaitPhase(g)
			ctl.Observe(g, ws)
			bare = append(bare, record(g.Ratio(), ws))
		}
		rt.Close()
	}

	ctl := newCtl()
	r, err := New(Config{
		Shards:  1,
		Runtime: rtCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Group("rep", 1.0)
	moved := false
	for w := 0; w < waves; w++ {
		r.SubmitBatch(g, stream(w))
		ws := r.WaitPhase(g)
		ctl.Observe(g, ws)
		if got := record(g.Ratio(), ws); got != bare[w] {
			t.Fatalf("wave %d: one-slot router %+v, bare runtime %+v", w, got, bare[w])
		}
		if trim := g.trimOf(0); trim != 0 {
			t.Fatalf("wave %d: one-slot router trimmed its only shard by %v", w, trim)
		}
		moved = moved || g.Ratio() < 1
	}
	if !moved {
		t.Fatal("the controller never shed: the stream does not exercise the ratio")
	}
}
