package shard

import (
	"testing"

	"repro/sig"
)

// benchWaveTasks is one wave of the router microbenchmarks: long enough
// that the per-wave fixed costs (flush, merge, trim) are noise against the
// per-task ones.
const benchWaveTasks = 4096

func benchBody() {}

// newBenchFleet builds a 2-shard × 1-worker GTB(max) fleet — the serving
// policy, where nothing runs before the taskwait flush — and one wave of
// mid-significance specs for it.
func newBenchFleet(tb testing.TB) (*Router, *Group, []sig.TaskSpec) {
	tb.Helper()
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer}})
	if err != nil {
		tb.Fatal(err)
	}
	specs := make([]sig.TaskSpec, benchWaveTasks)
	for i := range specs {
		specs[i] = sig.TaskSpec{Fn: benchBody, Approx: benchBody, Significance: float64(i%9+1) / 10,
			HasCost: true, CostAccurate: 50, CostApprox: 5}
	}
	return r, r.Group("bench", 0.5), specs
}

// BenchmarkRouterWave2Shards measures one full fleet wave — scatter, two
// per-shard batch ingests, flush-all, wait-all, merge — per op.
func BenchmarkRouterWave2Shards(b *testing.B) {
	r, g, specs := newBenchFleet(b)
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SubmitBatch(g, specs)
		r.WaitPhase(g)
	}
}

// TestRouterWaveAllocs is the zero-alloc gate of the fleet wave path,
// beside sig's TestSubmitAllocs and serve's TestServeSubmitAllocs: once the
// pools are warm, a multi-shard SubmitBatch plus the merged WaitPhase
// performs no heap allocation on any goroutine — the scatter buckets and
// the per-slot lag scratch are router- and group-owned, and each shard's
// flush publishes its pooled window in place.
func TestRouterWaveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool poisons Puts under -race; zero-alloc not observable")
	}
	r, g, specs := newBenchFleet(t)
	defer r.Close()
	wave := func() {
		r.SubmitBatch(g, specs)
		if ws := r.WaitPhase(g); ws.Decided() != len(specs) {
			t.Fatalf("wave decided %d of %d tasks", ws.Decided(), len(specs))
		}
	}
	for i := 0; i < 8; i++ {
		wave()
	}
	if avg := testing.AllocsPerRun(100, wave); avg > 0.5 {
		t.Errorf("%.2f allocs per steady-state 2-shard wave of %d tasks, want 0", avg, len(specs))
	}
}
