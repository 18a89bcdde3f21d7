package sig

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stashPolicy is a LocklessSubmitter that buffers: Submit keeps every task
// under the policy's own mutex and only Flush hands them back. It is the shape
// the Close protocol has to net a pre-published pending count back for.
type stashPolicy struct {
	mu  sync.Mutex
	buf []*Task
}

func (p *stashPolicy) Name() string    { return "stash" }
func (p *stashPolicy) LocklessSubmit() {}
func (p *stashPolicy) Submit(t *Task) (*Task, []*Task) {
	p.mu.Lock()
	p.buf = append(p.buf, t)
	p.mu.Unlock()
	return nil, nil
}
func (p *stashPolicy) Flush(dst []*Task) []*Task {
	p.mu.Lock()
	out := append(dst, p.buf...)
	p.buf = nil
	p.mu.Unlock()
	for _, t := range out[len(dst):] {
		t.Decision = DecideAccurate
	}
	return out
}
func (p *stashPolicy) WorkerDecide(int, *Task) Decision { return DecideAccurate }

// TestSubmitCloseRace: four submitters race one Close, per policy. Every call
// either panics "Submit on closed runtime" or is accepted; an accepted task is
// decided exactly once and (unless the policy drops) its body runs exactly
// once, a refused one never runs, the counters conserve after Close, and no
// goroutine outlives it. A batch may be refused part-way: its accepted chunks
// run, each body at most once.
func TestSubmitCloseRace(t *testing.T) {
	const maxTasks = 1 << 16
	sigs := [...]float64{0.0, 1.0, 0.3, 0.7, 0.5}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Accurate", Config{Policy: PolicyAccurate}},
		{"GTB", Config{Policy: PolicyGTB}},
		{"GTB(max)", Config{Policy: PolicyGTBMaxBuffer}},
		{"LQH", Config{Policy: PolicyLQH}},
		{"Perforation", Config{Policy: PolicyPerforation}},
		{"lockless-buffering", Config{NewPolicy: func(*Group) Policy { return &stashPolicy{} }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.cfg.Workers = 2
			rt, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := rt.Group("race", 0.5)
			drops := tc.cfg.Policy == PolicyPerforation && tc.cfg.NewPolicy == nil

			ran := make([]atomic.Int32, maxTasks)
			var next, accepted, submitted atomic.Int64
			body := func(i int64) func() { return func() { ran[i].Add(1) } }

			// call runs one Submit or SubmitBatch over the task ids
			// [lo, hi) and checks its outcome once the runtime is closed.
			type call struct {
				lo, hi   int64
				panicked bool
			}
			var wg sync.WaitGroup
			calls := make([][]call, 4)
			for s := range calls {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for round := 0; ; round++ {
						n := int64([...]int{1, 1, 3, 1, 150}[round%5])
						lo := next.Add(n) - n
						if lo+n > maxTasks {
							return
						}
						c := call{lo: lo, hi: lo + n}
						func() {
							defer func() {
								if p := recover(); p != nil {
									if p != "sig: Submit on closed runtime" {
										t.Errorf("unexpected panic: %v", p)
									}
									c.panicked = true
								}
							}()
							if n == 1 {
								rt.Submit(body(lo), WithLabel(g), WithSignificance(sigs[lo%5]),
									WithApprox(body(lo)), WithCost(10, 1))
								return
							}
							specs := make([]TaskSpec, n)
							for k := range specs {
								i := lo + int64(k)
								specs[k] = TaskSpec{Fn: body(i), Approx: body(i), Significance: sigs[i%5],
									HasCost: true, CostAccurate: 10, CostApprox: 1}
								if sigs[i%5] == 0 {
									specs[k].Significance = -1 // TaskSpec's zero value means 1.0
								}
							}
							rt.SubmitBatch(g, specs)
						}()
						calls[s] = append(calls[s], c)
						if c.panicked {
							return
						}
						accepted.Add(n)
					}
				}(s)
			}
			for deadline := time.Now().Add(10 * time.Second); accepted.Load() < 2000; {
				if time.Now().After(deadline) {
					t.Fatalf("submitters stalled at %d accepted tasks", accepted.Load())
				}
				runtime.Gosched()
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			var bodies int64
			for _, cs := range calls {
				for _, c := range cs {
					for i := c.lo; i < c.hi; i++ {
						n := ran[i].Load()
						bodies += int64(n)
						switch {
						case n > 1:
							t.Fatalf("task %d ran %d times", i, n)
						case c.panicked && c.hi-c.lo == 1 && n != 0:
							t.Fatalf("task %d of a refused Submit ran", i)
						case !c.panicked && !drops && n != 1:
							t.Fatalf("task %d of an accepted call did not run", i)
						}
					}
					if !c.panicked {
						submitted.Add(c.hi - c.lo)
					}
				}
			}
			gs := g.Stats()
			if gs.Submitted != gs.Accurate+gs.Approximate+gs.Dropped {
				t.Errorf("submitted %d, decided %d+%d+%d", gs.Submitted, gs.Accurate, gs.Approximate, gs.Dropped)
			}
			// Panicked batches may add accepted chunks on top of the calls
			// that returned.
			if gs.Submitted < submitted.Load() || gs.Submitted > submitted.Load()+4*150 {
				t.Errorf("runtime counted %d submitted, accepted calls carried %d", gs.Submitted, submitted.Load())
			}
			if bodies != gs.Accurate+gs.Approximate {
				t.Errorf("%d bodies ran, stats say %d accurate + %d approximate", bodies, gs.Accurate, gs.Approximate)
			}
			if !drops && gs.Dropped != 0 {
				t.Errorf("%d tasks dropped under a policy that never drops", gs.Dropped)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
