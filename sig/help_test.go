package sig

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdWorkers parks every worker of rt inside a fully significant task of g
// — it bypasses the policy and reaches a worker through a ring — and returns
// the function that lets them go. While they are held, whatever runs, runs on
// a goroutine in a taskwait.
func holdWorkers(t *testing.T, rt *Runtime, g *Group) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(rt.Workers())
	for i := 0; i < rt.Workers(); i++ {
		rt.Submit(func() { held.Done(); <-gate }, WithLabel(g), WithCost(0, 0))
	}
	held.Wait()
	return sync.OnceFunc(func() { close(gate) })
}

// within fails the test if fn has not returned after ten seconds: a taskwait
// nobody helps, with the workers held, never returns.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

// waveSpecs is a window of n tasks with distinct significances, so GTB(max)
// at ratio 0.5 runs exactly the upper half accurately; body(i) is both
// versions of task i.
func waveSpecs(n int, body func(i int) func()) []TaskSpec {
	specs := make([]TaskSpec, n)
	for i := range specs {
		fn := body(i)
		specs[i] = TaskSpec{Fn: fn, Approx: fn, Significance: float64(i+1) / float64(n+1),
			HasCost: true, CostAccurate: 100, CostApprox: 10}
	}
	return specs
}

// TestWaitHelpsAccounting: on a one-worker runtime whose worker is held until
// the middle of every window, the goroutine in WaitPhase runs at least the
// first half of each wave — nobody else can — and the wave reads exactly as it
// does on a runtime whose worker ran all of it: same WaveStats, busy time the
// sum of the declared costs, the helper's share on the clock slot past the
// workers'.
func TestWaitHelpsAccounting(t *testing.T) {
	const n, waves = 200, 5
	var want [waves]WaveStats

	// The reference: the worker finishes each window before the taskwait
	// looks, so the taskwait finds nothing to claim.
	ref := newRT(t, Config{Workers: 1, Policy: PolicyGTBMaxBuffer})
	defer ref.Close()
	g := ref.Group("wave", 0.5)
	for w := range want {
		ref.SubmitBatch(g, waveSpecs(n, func(int) func() { return func() {} }))
		ref.Flush(g)
		for g.pending.Load() > 0 {
			runtime.Gosched()
		}
		want[w] = ref.WaitPhase(g)
	}
	if got := ref.clocks[ref.workers].busyNS.Load(); got != 0 {
		t.Fatalf("reference run charged %d ns to the taskwait's clock, want none", got)
	}

	rt := newRT(t, Config{Workers: 1, Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	g = rt.Group("wave", 0.5)
	var ran atomic.Int64
	for w := range want {
		release := holdWorkers(t, rt, g)
		defer release()
		rt.SubmitBatch(g, waveSpecs(n, func(i int) func() {
			return func() {
				ran.Add(1)
				if i == n/2 {
					release()
				}
			}
		}))
		var got WaveStats
		within(t, "WaitPhase with the worker held", func() { got = rt.WaitPhase(g) })
		// The held task is fully significant and declares no cost.
		got.Submitted--
		got.Accurate--
		got.ProvidedRatio = want[w].ProvidedRatio
		if got != want[w] {
			t.Errorf("wave %d with the taskwait helping: %+v\nwith the worker alone: %+v", w, got, want[w])
		}
		if busy := time.Duration(n/2*100 + n/2*10); got.Busy != busy {
			t.Errorf("wave %d busy %v, want the declared %v", w, got.Busy, busy)
		}
	}
	if ran.Load() != n*waves {
		t.Errorf("%d bodies ran, want %d", ran.Load(), n*waves)
	}
	total := time.Duration(waves * (n/2*100 + n/2*10))
	if got := rt.Energy().Busy; got != total || got != ref.Energy().Busy {
		t.Errorf("Energy().Busy %v, want %v (reference %v)", got, total, ref.Energy().Busy)
	}
	// Tasks 0..n/2 of each wave are approximated (cost 10) and ran while
	// the worker was held.
	if got, least := rt.clocks[rt.workers].busyNS.Load(), int64(waves*(n/2)*10); got < least {
		t.Errorf("taskwait's clock slot holds %d ns, want at least %d", got, least)
	}
}

// TestWaitHelpsPanicKillsProcess: a body panic kills the process wherever the
// body ran. On the goroutine in Wait that takes care: a
// caller that recovers around Wait (net/http does, around a handler) would
// otherwise swallow the panic and keep a runtime with half a chunk run and a
// pending count that never reaches zero. The child below is such a caller.
func TestWaitHelpsPanicKillsProcess(t *testing.T) {
	const env = "SIG_HELP_PANIC_CHILD"
	if os.Getenv(env) == "1" {
		rt := newRT(t, Config{Workers: 1, Policy: PolicyGTBMaxBuffer})
		g := rt.Group("panic", 0.5)
		holdWorkers(t, rt, g) // never released: the panic can only happen in Wait
		rt.SubmitBatch(g, waveSpecs(8, func(int) func() { return func() { panic("body went boom") } }))
		func() {
			defer func() { recover() }()
			rt.Wait(g)
		}()
		fmt.Println("the caller of Wait survived the panic")
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWaitHelpsPanicKillsProcess$", "-test.timeout=30s")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
		t.Fatalf("child ended with %v, want exit status 2 (an unrecovered panic)\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "panic: body went boom") || strings.Contains(s, "survived") {
		t.Fatalf("child did not die of the body's panic:\n%s", s)
	}
}

// atWorkerStash buffers like stashPolicy but hands its window back undecided:
// every task is left to WorkerDecide, which records the ids it is called
// with.
type atWorkerStash struct {
	stashPolicy
	maxID   atomic.Int64
	decided atomic.Int64
}

func (p *atWorkerStash) Flush(dst []*Task) []*Task {
	out := p.stashPolicy.Flush(dst)
	for _, t := range out[len(dst):] {
		t.Decision = DecideAtWorker
	}
	return out
}

func (p *atWorkerStash) WorkerDecide(id int, _ *Task) Decision {
	for {
		cur := p.maxID.Load()
		if int64(id) <= cur || p.maxID.CompareAndSwap(cur, int64(id)) {
			break
		}
	}
	p.decided.Add(1)
	return DecideAccurate
}

// TestWaitHelpsLeavesUndecidedToWorkers: a custom policy may flush tasks
// still DecideAtWorker, and its WorkerDecide is promised ids below Workers().
// The goroutine in Wait has no such id, so that window goes to the rings,
// where only workers take from: with both workers held, Wait helps with
// nothing and blocks, and every decision is made by a worker once they are
// let go.
func TestWaitHelpsLeavesUndecidedToWorkers(t *testing.T) {
	const n = 100
	p := &atWorkerStash{}
	rt := newRT(t, Config{Workers: 2, NewPolicy: func(*Group) Policy { return p }})
	defer rt.Close()
	g := rt.Group("undecided", 0.5)
	release := holdWorkers(t, rt, g)
	defer release()
	var ran atomic.Int64
	rt.SubmitBatch(g, waveSpecs(n, func(int) func() { return func() { ran.Add(1) } }))

	done := make(chan WaveStats)
	go func() { done <- rt.WaitPhase(g) }()
	// The taskwait is through its help step once it has announced itself in
	// waitIdle.
	for g.waiters.Load() == 0 {
		runtime.Gosched()
	}
	if d := p.decided.Load(); d != 0 {
		t.Errorf("%d tasks decided with every worker held: WorkerDecide ran off a worker", d)
	}
	release()
	select {
	case ws := <-done:
		if ws.Accurate != n+2 {
			t.Errorf("wave ran %d tasks accurately, want %d", ws.Accurate, n+2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitPhase still blocked 10s after the workers were released")
	}
	if p.decided.Load() != n || ran.Load() != n {
		t.Errorf("%d decisions and %d bodies, want %d each", p.decided.Load(), ran.Load(), n)
	}
	if id := p.maxID.Load(); id >= int64(rt.Workers()) {
		t.Errorf("WorkerDecide was called with id %d on a runtime of %d workers", id, rt.Workers())
	}
}

// TestWaitHelpsStorm: two goroutines loop batch-and-taskwait on a group each,
// so each claims from whichever window is published — its own or the
// other's; a third streams single tasks through saturated rings, and Close
// races all three. Every accepted task is decided exactly once, every body
// runs at most once and — nothing here drops — exactly once if accepted, the
// segment ends released, and no goroutine outlives Close.
func TestWaitHelpsStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	rt, err := New(Config{Workers: 2, Policy: PolicyGTBMaxBuffer, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	const maxTasks, batch = 1 << 17, 100
	ran := make([]atomic.Int32, maxTasks)
	var next, waves, streamed atomic.Int64
	body := func(i int64) func() { return func() { ran[i].Add(1) } }

	var wg sync.WaitGroup
	untilClosed := func(step func() bool) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil && p != "sig: Submit on closed runtime" {
				t.Errorf("unexpected panic: %v", p)
			}
		}()
		for step() {
		}
	}
	waiter := func(g *Group) func() bool {
		specs := make([]TaskSpec, batch)
		return func() bool {
			lo := next.Add(batch) - batch
			if lo+batch > maxTasks {
				return false
			}
			for i := range specs {
				fn := body(lo + int64(i))
				specs[i] = TaskSpec{Fn: fn, Approx: fn, Significance: float64(i%9+1) / 10,
					HasCost: true, CostAccurate: 10, CostApprox: 1}
			}
			rt.SubmitBatch(g, specs)
			rt.WaitPhase(g)
			waves.Add(1)
			// A taskwait that runs its own window never blocks: at one P
			// the workers, and the stream behind them, run when it yields.
			runtime.Gosched()
			return true
		}
	}
	stream := rt.Group("stream", 1.0)
	wg.Add(3)
	go untilClosed(waiter(rt.Group("a", 0.5)))
	go untilClosed(waiter(rt.Group("b", 0.5)))
	go untilClosed(func() bool {
		i := next.Add(1) - 1
		if i >= maxTasks {
			return false
		}
		rt.Submit(body(i), WithLabel(stream), WithCost(10, 0))
		streamed.Add(1)
		return true
	})
	for deadline := time.Now().Add(10 * time.Second); waves.Load() < 40 || streamed.Load() < 500; {
		if time.Now().After(deadline) {
			t.Fatalf("stalled: %d waves, %d streamed tasks", waves.Load(), streamed.Load())
		}
		runtime.Gosched()
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st := rt.Stats()
	if decided := st.Accurate + st.Approximate + st.Dropped; st.Submitted == 0 || decided != st.Submitted {
		t.Errorf("submitted %d, decided %d", st.Submitted, decided)
	}
	var bodies int64
	for i := range ran {
		c := int64(ran[i].Load())
		if c > 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
		bodies += c
	}
	if bodies != int64(st.Submitted) {
		t.Errorf("%d bodies ran for %d accepted tasks", bodies, st.Submitted)
	}
	if seg := &rt.sched.seg; seg.owned.Load() || seg.remaining.Load() != 0 || seg.uncopied.Load() != 0 {
		t.Errorf("segment left owned=%v remaining=%d uncopied=%d", seg.owned.Load(), seg.remaining.Load(), seg.uncopied.Load())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
