package sig

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// Microbenchmarks for the scheduler hot path (`make bench`). They use only
// the public API so the same file measures any scheduler implementation; the
// numbers a PR is judged on are the sig.* per-layer metrics of
// `go run ./benchmark` (sig.submit_ns_per_task, sig.overhead.*).

// benchBody is a no-capture task body: the scheduler cost dominates.
func benchBody() {}

// benchOpts builds the option slice once so the benchmark loop measures
// Submit, not closure construction.
func benchOpts(g *Group) []TaskOption {
	return []TaskOption{WithLabel(g), WithSignificance(0.5), WithApprox(benchBody), WithCost(50, 5)}
}

// benchFlushEvery bounds the buffer growth of buffering policies (and the
// pending count) during open-loop submit benchmarks.
const benchFlushEvery = 1 << 15

// BenchmarkSubmit measures single-threaded submit throughput per policy.
// Each leaf holds GOMAXPROCS at 1 for its duration, so the workers run the
// submitted bodies only in the untimed drains. Without it, a policy that
// dispatches at Submit (Accurate, LQH) shares the timed loop with workers
// that park and wake, and at -cpu 2 one binary read 175–540 ns/op.
func BenchmarkSubmit(b *testing.B) {
	for _, kind := range []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation} {
		b.Run(kind.String(), func(b *testing.B) {
			// Here, not in the parent: the framework sets -cpu's
			// GOMAXPROCS again before each leaf.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			rt, err := New(Config{Workers: 2, Policy: kind})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			g := rt.Group("bench", 0.5)
			opts := benchOpts(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Submit(benchBody, opts...)
				if i%benchFlushEvery == benchFlushEvery-1 {
					// Drain outside the timed region: this benchmark
					// measures submit throughput, not execution.
					b.StopTimer()
					rt.Wait(g)
					b.StartTimer()
				}
			}
			b.StopTimer()
			rt.Wait(g)
			b.StartTimer()
		})
	}
}

// BenchmarkSubmitBatch measures batched submit throughput per policy: one
// benchmark op is one task, submitted through SubmitBatch in chunks. This is
// the scheduler's peak-ingest path (slab-allocated tasks, one policy lock
// and one sequence reservation per chunk).
func BenchmarkSubmitBatch(b *testing.B) {
	const chunk = 512
	for _, kind := range []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation} {
		b.Run(kind.String(), func(b *testing.B) {
			rt, err := New(Config{Workers: 2, Policy: kind})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			g := rt.Group("bench", 0.5)
			specs := make([]TaskSpec, chunk)
			for i := range specs {
				specs[i] = TaskSpec{Fn: benchBody, Approx: benchBody, Significance: 0.5,
					HasCost: true, CostAccurate: 50, CostApprox: 5}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for submitted := 0; submitted < b.N; {
				n := len(specs)
				if rem := b.N - submitted; rem < n {
					n = rem
				}
				rt.SubmitBatch(g, specs[:n])
				submitted += n
				if submitted%benchFlushEvery < chunk {
					b.StopTimer()
					rt.Wait(g)
					b.StartTimer()
				}
			}
			b.StopTimer()
			rt.Wait(g)
			b.StartTimer()
		})
	}
}

// BenchmarkSubmitParallel measures multi-producer scaling: 1, 4 and
// GOMAXPROCS concurrent submitters against a shared runtime.
func BenchmarkSubmitParallel(b *testing.B) {
	producers := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, np := range producers {
		b.Run(fmt.Sprintf("producers=%d", np), func(b *testing.B) {
			rt, err := New(Config{Policy: PolicyLQH})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			g := rt.Group("bench", 0.5)
			opts := benchOpts(g)
			b.ReportAllocs()
			b.ResetTimer()
			done := make(chan struct{})
			work := make(chan int, np)
			for p := 0; p < np; p++ {
				go func() {
					for n := range work {
						for i := 0; i < n; i++ {
							rt.Submit(benchBody, opts...)
						}
						done <- struct{}{}
					}
				}()
			}
			per := b.N / np
			for p := 0; p < np; p++ {
				n := per
				if p == 0 {
					n += b.N % np
				}
				work <- n
			}
			for p := 0; p < np; p++ {
				<-done
			}
			close(work)
			b.StopTimer()
			rt.Wait(g)
		})
	}
}

// BenchmarkWait measures the taskwait path: submit a small wave, then Wait.
func BenchmarkWait(b *testing.B) {
	const wave = 64
	rt, err := New(Config{Policy: PolicyGTBMaxBuffer})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("bench", 0.5)
	opts := benchOpts(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < wave; j++ {
			rt.Submit(benchBody, opts...)
		}
		rt.Wait(g)
	}
}

// BenchmarkWaveFlush measures the taskwait path at wave scale: one op is a
// 4096-task GTB(max) wave — batch ingest, the flush that decides and
// publishes the whole window, and the wait for the workers to claim it.
func BenchmarkWaveFlush(b *testing.B) {
	const wave = 4096
	rt, err := New(Config{Workers: 2, Policy: PolicyGTBMaxBuffer})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("bench", 0.5)
	specs := make([]TaskSpec, wave)
	for i := range specs {
		specs[i] = TaskSpec{Fn: benchBody, Approx: benchBody, Significance: float64(i%9+1) / 10,
			HasCost: true, CostAccurate: 50, CostApprox: 5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SubmitBatch(g, specs)
		rt.WaitPhase(g)
	}
}

// benchXorshift is the body of the repository benchmark's runtime_tasks
// workload (benchmark/runtime_tasks.go): 200 steps accurate (~0.4 µs), 40
// approximate, declared as 600 and 120 cost units.
func benchXorshift(steps int) func() {
	return func() {
		x := uint64(88172645463325252)
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if x == 0 { // never: xorshift keeps a non-zero state non-zero; the test keeps the loop alive
			benchSink.Store(x)
		}
	}
}

var benchSink atomic.Uint64

// BenchmarkSubmitWave measures the paper's programming model end to end: one
// op is a wave of 4096 tasks, each its own Submit with the four clause
// options built at the call site, plus the taskwait — per-task ingest under a
// buffering (gtb) and a worker-local (lqh) policy. With the empty body the
// workers always keep up with the submitter; the -body variants run the
// benchmark's bodies, which two workers execute slower than one goroutine
// submits, so the rings fill and the wave runs under backpressure.
func BenchmarkSubmitWave(b *testing.B) {
	const wave = 4096
	for _, v := range []struct {
		name       string
		kind       PolicyKind
		acc, apx   func()
		cAcc, cApx float64
	}{
		{"gtb", PolicyGTB, benchBody, benchBody, 50, 5},
		{"lqh", PolicyLQH, benchBody, benchBody, 50, 5},
		{"gtb-body", PolicyGTB, benchXorshift(200), benchXorshift(40), 600, 120},
		{"lqh-body", PolicyLQH, benchXorshift(200), benchXorshift(40), 600, 120},
	} {
		b.Run(v.name, func(b *testing.B) {
			rt, err := New(Config{Workers: 2, Policy: v.kind})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			g := rt.Group("bench", 0.5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < wave; j++ {
					rt.Submit(v.acc, WithLabel(g), WithSignificance(float64(j%9+1)/10),
						WithApprox(v.apx), WithCost(v.cAcc, v.cApx))
				}
				rt.WaitPhase(g)
			}
		})
	}
}

// TestSubmitAllocs asserts the steady-state heap cost of a submitted,
// executed task is zero under every policy — including GTB's window
// hand-outs. It measures whole waves, so an allocation per window shows as well as one per
// task; AllocsPerRun floors the average, so a stray pool refill does not.
func TestSubmitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; zero-alloc not observable")
	}
	const wave = 2000
	kinds := []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			rt, err := New(Config{Workers: 1, Policy: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			g := rt.Group("alloc", 0.5)
			opts := benchOpts(g)
			submitWave := func() {
				for i := 0; i < wave; i++ {
					rt.Submit(benchBody, opts...)
				}
				rt.Wait(g)
			}
			// Warm the slab pool and code paths with as many live tasks as a
			// measured wave buffers (GTB(max) holds all of them until
			// taskwait).
			submitWave()
			submitWave()
			if avg := testing.AllocsPerRun(10, submitWave) / wave; avg > 0 {
				t.Errorf("%v: %.4f allocs per submitted task, want 0", kind, avg)
			}
		})
	}
}
