package shard

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/adapt"
)

// newRouter starts a router of the given shape, closed when the test ends.
func newRouter(tb testing.TB, shards int, rt sig.Config) *Router {
	tb.Helper()
	r, err := New(Config{Shards: shards, Runtime: rt})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	return r
}

// specStream builds n do-nothing TaskSpecs of the given significances.
func specStream(n int, sigOf func(i int) float64) []sig.TaskSpec {
	specs := make([]sig.TaskSpec, n)
	for i := range specs {
		s := sigOf(i)
		if s == 0 {
			s = -1 // batch spelling of the special 0.0
		}
		specs[i] = sig.TaskSpec{Fn: func() {}, Approx: func() {}, Significance: s,
			HasCost: true, CostAccurate: 10, CostApprox: 1}
	}
	return specs
}

func nineLevels(i int) float64 { return float64(i%9+1) / 10 }

// submitted returns each shard's submitted count.
func submitted(r *Router) []int64 {
	var out []int64
	for _, st := range r.ShardStats() {
		out = append(out, st.Submitted)
	}
	return out
}

func TestRouterSurface(t *testing.T) {
	r := newRouter(t, 4, sig.Config{Workers: 1})
	g := r.Group("web", 0.5)
	if g2 := r.Group("web", 0.8); g2 != g {
		t.Error("Group is not idempotent")
	}
	const n = 120
	r.SubmitBatch(g, specStream(n, nineLevels))
	if ws := r.WaitPhase(g); ws.RequestedRatio != 0.8 || ws.Decided() != n {
		t.Errorf("merged wave %+v: want %d decided at the retargeted 0.8", ws, n)
	}
	// Round-robin with a single submitter stripes exactly n/shards each.
	if got := submitted(r); !slices.Equal(got, []int64{n / 4, n / 4, n / 4, n / 4}) {
		t.Errorf("shards got %v tasks, want %d each (round-robin)", got, n/4)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	r := newRouter(t, 0, sig.Config{}) // zero config = 1 shard
	if got := len(r.ShardStats()); got != 1 {
		t.Errorf("zero Shards resolved to %d", got)
	}
	if err, again := r.Close(), r.Close(); err != nil || again != nil {
		t.Errorf("Close: %v, second Close: %v", err, again)
	}
}

// TestRouterNilBodyValidatedUpfront: a nil body must panic before anything
// is placed — no partial batch dispatched.
func TestRouterNilBodyValidatedUpfront(t *testing.T) {
	r := newRouter(t, 2, sig.Config{Workers: 1})
	g := r.Group("", 1.0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SubmitBatch accepted a nil task body")
			}
		}()
		r.SubmitBatch(g, []sig.TaskSpec{{Fn: func() {}}, {}})
	}()
	if got := submitted(r); got[0]+got[1] != 0 {
		t.Errorf("%v tasks of the invalid batch were dispatched", got)
	}
}

// TestStalledShardHoldsWave wedges shard 0 mid-wave on a gate: the merged
// taskwait must not return early, shard 1 must run its cut meanwhile, new
// work must queue behind the stall, and every task runs once the gate opens.
func TestStalledShardHoldsWave(t *testing.T) {
	r := newRouter(t, 2, sig.Config{Workers: 1})
	g := r.Group("stall", 1.0)
	gate := make(chan struct{})
	var stalled, fast atomic.Int64
	slow := sig.TaskSpec{Fn: func() { <-gate; stalled.Add(1) }, HasCost: true, CostAccurate: 100}
	// Spec k goes to shard k mod 2: the gated specs (even) to shard 0.
	var specs []sig.TaskSpec
	for range 8 {
		specs = append(specs, slow, sig.TaskSpec{Fn: func() { fast.Add(1) }, HasCost: true, CostAccurate: 200})
	}
	r.SubmitBatch(g, specs)

	done := make(chan sig.WaveStats, 1)
	go func() { done <- r.WaitPhase(g) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("merged WaitPhase returned while one shard was stalled mid-wave")
	default:
	}
	for deadline := time.Now().Add(5 * time.Second); fast.Load() != 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("healthy shard ran %d bodies with its sibling stalled, want 8", fast.Load())
		}
	}
	// The next spec's turn is shard 0's; it must queue, not vanish.
	r.SubmitBatch(g, []sig.TaskSpec{{Fn: func() { stalled.Add(1) }, HasCost: true, CostAccurate: 100}})
	if got := submitted(r); got[0] != 9 || got[1] != 8 {
		t.Errorf("shards hold %v tasks, want 9/8", got)
	}
	close(gate)
	ws := <-done
	ws.Merge(r.WaitPhase(g)) // the straggler submitted after WaitPhase started
	if stalled.Load() != 9 || ws.Submitted != 17 || ws.Accurate != 17 {
		t.Errorf("after the stall %d gated bodies ran and the waves read %+v, want 9 and 17 accurate", stalled.Load(), ws)
	}
}

// TestRouterShardsOverlap: WaitPhase flushes every shard before it waits on
// any, so under GTB(max) — nothing runs before its shard's flush — the
// shards' waves run side by side, not one shard at a time.
func TestRouterShardsOverlap(t *testing.T) {
	t.Run("synchronous", func(t *testing.T) {
		r := newRouter(t, 2, sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
		g := r.Group("overlap", 1.0)
		// Shard 0's body ends early only if shard 1's runs beside it.
		peer := make(chan struct{})
		var overlapped atomic.Bool
		r.SubmitBatch(g, []sig.TaskSpec{
			{Fn: func() {
				select {
				case <-peer:
					overlapped.Store(true)
				case <-time.After(2 * time.Second):
				}
			}, Significance: 0.5},
			{Fn: func() { close(peer) }, Significance: 0.5},
		})
		if ws := r.WaitPhase(g); ws.Decided() != 2 || !overlapped.Load() {
			t.Errorf("merged wave decided %d of 2; shard 1 ran beside shard 0: %v", ws.Decided(), overlapped.Load())
		}
	})
}

// TestShardedWaveMerge: merged waves are indexed like a runtime's, and an
// empty one provides its requested ratio (no 0/0 artifact).
func TestShardedWaveMerge(t *testing.T) {
	r := newRouter(t, 3, sig.Config{Workers: 1})
	g := r.Group("m", 0.6)
	r.SubmitBatch(g, specStream(90, nineLevels))
	if ws, e := r.WaitPhase(g), r.WaitPhase(g); ws.Wave != 0 || ws.Decided() != 90 || e.Wave != 1 || e.Decided() != 0 || e.ProvidedRatio != 0.6 {
		t.Errorf("merged waves %+v then %+v, want wave 0 deciding 90, then an empty wave 1 providing 0.6", ws, e)
	}
}

// TestMergeReproducesSpelledOutAccount holds WaitPhase's merge to the
// formulas spelled out by hand at 1, 2, 4 and 8 shards: the shards' own
// counts summed, the declared busy time priced in one multiplication, and
// provided = accurate ÷ decided.
func TestMergeReproducesSpelledOutAccount(t *testing.T) {
	const tasks = 217
	for _, shards := range []int{1, 2, 4, 8} {
		r := newRouter(t, shards, sig.Config{Workers: 1, Policy: sig.PolicyAccurate, QueueCapacity: 64})
		g := r.Group("stream", 1.0)
		r.SubmitBatch(g, specStream(tasks, nineLevels))
		ws := r.WaitPhase(g)
		want := sig.WaveStats{RequestedRatio: 1, Busy: tasks * 10}
		for _, st := range r.ShardStats() {
			want.Submitted += int(st.Submitted)
			want.Accurate += int(st.Accurate)
			want.Approximate += int(st.Approximate)
			want.Dropped += int(st.Dropped)
		}
		want.Joules = sig.DefaultActiveWatts * want.Busy.Seconds()
		want.ProvidedRatio = float64(want.Accurate) / float64(want.Decided())
		if ws != want || want.Submitted != tasks {
			t.Errorf("%d shards: WaitPhase = %+v, spelled out %+v", shards, ws, want)
		}
	}
}

// retarget is a Router group as an adapt.Target: Router.Group retargets.
type retarget struct {
	r    *Router
	name string
}

func (t retarget) SetRatio(x float64) { t.r.Group(t.name, x) }

// closedLoop runs waves of stream(w) through wave, a joules-capping
// controller observing each and retargeting through tg, and returns the
// waves.
func closedLoop(t *testing.T, waves int, stream func(w int) []sig.TaskSpec, tg adapt.Target,
	wave func([]sig.TaskSpec) sig.WaveStats) []sig.WaveStats {
	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetLoad,
		Budget:    sig.DefaultActiveWatts * 400 * 1e-9, // ~half of full-accurate demand
		Measure:   func(ws sig.WaveStats) float64 { return ws.Joules },
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []sig.WaveStats
	for w := range waves {
		out = append(out, wave(stream(w)))
		ctl.Observe(tg, out[w])
	}
	return out
}

// routerLoop is closedLoop on a fresh GTB(max) router of one worker a shard.
func routerLoop(t *testing.T, shards, waves int, stream func(w int) []sig.TaskSpec) []sig.WaveStats {
	r := newRouter(t, shards, sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	g := r.Group("rep", 1.0)
	return closedLoop(t, waves, stream, retarget{r, "rep"},
		func(specs []sig.TaskSpec) sig.WaveStats { r.SubmitBatch(g, specs); return r.WaitPhase(g) })
}

// TestDeterministicShardedReplay: a closed loop of GTB(max) shards and an
// adapt controller retargeting through Router.Group replays bit-identically
// (ratio trajectory, outcome counts, per-wave joules) at 1, 2 and 8 shards.
func TestDeterministicShardedReplay(t *testing.T) {
	stream := func(int) []sig.TaskSpec { return specStream(80, nineLevels) }
	for _, shards := range []int{1, 2, 8} {
		if a, b := routerLoop(t, shards, 10, stream), routerLoop(t, shards, 10, stream); !slices.Equal(a, b) {
			t.Fatalf("%d shards diverged across identical runs:\n%v\n%v", shards, a, b)
		}
	}
}

// TestOneSlotRouterIsARuntime: a stream with bursts of 0.0-specials, which
// make the provided ratio lag the command, driven through a bare sig.Runtime
// and through a one-slot Router under the same controller yields the same
// waves: ratio trajectory, outcome counts and bit-identical joules.
func TestOneSlotRouterIsARuntime(t *testing.T) {
	// An LCG picks each significance from {0.0, 0.1, ..., 1.0}; odd waves
	// turn two thirds of the stream into 0.0-specials.
	stream := func(w int) []sig.TaskSpec {
		seed := uint32(12345 + w)
		return specStream(80, func(i int) float64 {
			seed = seed*1664525 + 1013904223
			if w%2 == 1 && i%3 != 0 {
				return 0
			}
			return float64(seed>>16%11) / 10
		})
	}
	rt, err := sig.New(sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("rep", 1.0)
	bare := closedLoop(t, 16, stream, g,
		func(specs []sig.TaskSpec) sig.WaveStats { rt.SubmitBatch(g, specs); return rt.WaitPhase(g) })
	if routed := routerLoop(t, 1, 16, stream); !slices.Equal(routed, bare) {
		t.Fatalf("one-slot router %v\nbare runtime %v", routed, bare)
	}
	if !slices.ContainsFunc(bare, func(ws sig.WaveStats) bool { return ws.RequestedRatio < 1 }) {
		t.Fatal("the controller never shed: the stream does not exercise the ratio")
	}
}

// orderPolicy runs every task accurately and records, in order, the
// significances its shard receives. Only the submitter calls Submit.
type orderPolicy struct{ seen []float64 }

func (p *orderPolicy) Submit(dst []*sig.Task, ts []sig.Task) []*sig.Task {
	for i := range ts {
		p.seen = append(p.seen, ts[i].Significance)
		ts[i].Decision = sig.DecideAccurate
		dst = append(dst, &ts[i])
	}
	return dst
}
func (p *orderPolicy) Flush(dst []*sig.Task) []*sig.Task        { return dst }
func (p *orderPolicy) WorkerDecide(int, *sig.Task) sig.Decision { return sig.DecideAccurate }

// TestScatterMatchesSubmitLoop: round-robin placement in submission order,
// spec k on shard k mod 5, whether the specs come one per SubmitBatch or in
// batches that take one cursor range each.
func TestScatterMatchesSubmitLoop(t *testing.T) {
	const n = 997
	specs := make([]sig.TaskSpec, n)
	for i := range specs {
		specs[i] = sig.TaskSpec{Fn: func() {}, Significance: float64(i+1) / (n + 2)}
	}
	// scatter returns each shard's transcript; shard i creates parts[i].
	scatter := func(submit func(*Router, *Group)) (subs [][]float64) {
		var parts []*orderPolicy
		r := newRouter(t, 5, sig.Config{Workers: 1, NewPolicy: func(*sig.Group) sig.Policy {
			parts = append(parts, &orderPolicy{})
			return parts[len(parts)-1]
		}})
		g := r.Group("scatter", 1.0)
		submit(r, g)
		r.WaitPhase(g)
		for _, p := range parts {
			subs = append(subs, p.seen)
		}
		return subs
	}
	// The case keeps the name it had beside a since-deleted drained-slot case.
	t.Run("round-robin/surgery=false", func(t *testing.T) {
		loop := scatter(func(r *Router, g *Group) {
			for i := range specs {
				r.SubmitBatch(g, specs[i:i+1])
			}
		})
		batch := scatter(func(r *Router, g *Group) {
			r.SubmitBatch(g, specs[:n/3])
			r.SubmitBatch(g, specs[n/3:])
		})
		for b := range loop {
			var want []float64
			for k := b; k < n; k += 5 {
				want = append(want, specs[k].Significance)
			}
			if !slices.Equal(loop[b], want) || !slices.Equal(batch[b], want) {
				t.Errorf("shard %d: the one-spec loop sent %d specs and SubmitBatch %d, want %d in submission order",
					b, len(loop[b]), len(batch[b]), len(want))
			}
		}
	})
}

// newBenchRouter builds the shard2_batch rung's shape — 2 shards × 1 worker
// under GTB(max) — and one wave of 4096 specs.
func newBenchRouter(tb testing.TB) (*Router, *Group, []sig.TaskSpec) {
	r := newRouter(tb, 2, sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	return r, r.Group("bench", 0.5), specStream(4096, nineLevels)
}

// BenchmarkRouterWave2Shards measures one full router wave — scatter, two
// per-shard batch ingests, flush-all, wait-all, merge — per op.
func BenchmarkRouterWave2Shards(b *testing.B) {
	r, g, specs := newBenchRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SubmitBatch(g, specs)
		r.WaitPhase(g)
	}
}

// TestRouterWaveAllocs is the zero-alloc gate of the router wave, beside
// sig's TestSubmitAllocs and serve's TestServeSubmitAllocs: warm, a
// multi-shard SubmitBatch plus the merged WaitPhase allocates nothing on any
// goroutine — the scatter buckets are pooled.
func TestRouterWaveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool poisons Puts under -race; zero-alloc not observable")
	}
	r, g, specs := newBenchRouter(t)
	wave := func() {
		r.SubmitBatch(g, specs)
		if ws := r.WaitPhase(g); ws.Decided() != len(specs) {
			t.Fatalf("wave decided %d of %d tasks", ws.Decided(), len(specs))
		}
	}
	for range 8 {
		wave()
	}
	if avg := testing.AllocsPerRun(100, wave); avg > 0.5 {
		t.Errorf("%.2f allocs per steady-state 2-shard wave of %d tasks, want 0", avg, len(specs))
	}
}
