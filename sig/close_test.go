package sig

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stashPolicy is a custom policy that buffers: Submit keeps every task and
// only Flush hands them back. It has no lock of its own — the group lock is
// what serializes it against four submitters and Close's flush.
type stashPolicy struct{ buf []*Task }

func (p *stashPolicy) Submit(dst []*Task, ts []Task) []*Task {
	for i := range ts {
		p.buf = append(p.buf, &ts[i])
	}
	return dst
}
func (p *stashPolicy) Flush(dst []*Task) []*Task {
	out := append(dst, p.buf...)
	p.buf = nil
	for _, t := range out[len(dst):] {
		t.Decision = DecideAccurate
	}
	return out
}
func (p *stashPolicy) WorkerDecide(int, *Task) Decision { return DecideAccurate }

// specSig is significance s as TaskSpec spells it: the struct's zero value
// means 1.0, so the special 0.0 is any negative.
func specSig(s float64) float64 {
	if s == 0 {
		return -1
	}
	return s
}

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
		{"custom-buffering", Config{NewPolicy: func(*Group) Policy { return &stashPolicy{} }}},
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
								specs[k] = TaskSpec{Fn: body(i), Approx: body(i), Significance: specSig(sigs[i%5]),
									HasCost: true, CostAccurate: 10, CostApprox: 1}
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
			gs := g.stats()
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

// TestConcurrentSubmittersConserve: four producers into one group, by Submit,
// by SubmitBatch or by both in turn, with a fifth goroutine in Wait throughout,
// under every built-in policy. The group lock is the only thing between them:
// each body runs at most once (exactly once unless the policy drops), the
// counters conserve, the special significances are honoured whatever the
// policy, and Perforation's accurate count over the whole stream is within one
// task of ratio × n — its accumulator is a plain word, so a submit path that
// forgets the lock loses adds here, and under -race (make race repeats this
// test) is reported on its first unlocked call.
func TestConcurrentSubmittersConserve(t *testing.T) {
	const (
		producers   = 4
		perProducer = 1500
		n           = producers * perProducer
		ratio       = 0.3
	)
	sigOf := func(i int) float64 { return float64(i%11) / 10 } // 0.0 … 1.0
	for _, kind := range []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation} {
		for _, mode := range []string{"Submit", "SubmitBatch", "mixed"} {
			t.Run(kind.String()+"/"+mode, func(t *testing.T) {
				rt, err := New(Config{Workers: 2, Policy: kind})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				g := rt.Group("conserve", ratio)
				ranAcc, ranApprox := make([]atomic.Int32, n), make([]atomic.Int32, n)
				spec := func(i int) TaskSpec {
					return TaskSpec{Fn: func() { ranAcc[i].Add(1) }, Approx: func() { ranApprox[i].Add(1) },
						Significance: specSig(sigOf(i)), HasCost: true, CostAccurate: 10, CostApprox: 1}
				}

				stop := make(chan struct{})
				waiter := make(chan struct{})
				go func() {
					defer close(waiter)
					for {
						select {
						case <-stop:
							return
						default:
							rt.Wait(g)
						}
					}
				}()
				var prod sync.WaitGroup
				for p := 0; p < producers; p++ {
					prod.Add(1)
					go func(lo int) {
						defer prod.Done()
						for i, round := lo, 0; i < lo+perProducer; round++ {
							if mode == "Submit" || mode == "mixed" && round%2 == 0 {
								sp := spec(i)
								rt.Submit(sp.Fn, WithLabel(g), WithSignificance(sigOf(i)),
									WithApprox(sp.Approx), WithCost(sp.CostAccurate, sp.CostApprox))
								i++
								continue
							}
							specs := make([]TaskSpec, min(50, lo+perProducer-i))
							for k := range specs {
								specs[k] = spec(i + k)
							}
							rt.SubmitBatch(g, specs)
							i += len(specs)
						}
					}(p * perProducer)
				}
				prod.Wait()
				close(stop)
				<-waiter
				rt.Wait(g)

				drops := kind == PolicyPerforation
				var accBodies, approxBodies, ones, zeros int64
				for i := 0; i < n; i++ {
					a, x := int64(ranAcc[i].Load()), int64(ranApprox[i].Load())
					accBodies, approxBodies = accBodies+a, approxBodies+x
					s := sigOf(i)
					switch {
					case a+x > 1:
						t.Fatalf("task %d ran %d accurate and %d approximate bodies", i, a, x)
					case !drops && a+x != 1:
						t.Fatalf("task %d never ran", i)
					case s == 1 && a != 1:
						t.Fatalf("task %d of significance 1.0 did not run accurately", i)
					case s == 0 && x != 1:
						t.Fatalf("task %d of significance 0.0 did not run approximately", i)
					}
					if s == 1 {
						ones++
					} else if s == 0 {
						zeros++
					}
				}
				gs := g.stats()
				if gs.Submitted != n || gs.Accurate+gs.Approximate+gs.Dropped != n {
					t.Errorf("submitted %d of %d, decided %d+%d+%d", gs.Submitted, n, gs.Accurate, gs.Approximate, gs.Dropped)
				}
				if accBodies != gs.Accurate || approxBodies != gs.Approximate {
					t.Errorf("%d accurate and %d approximate bodies ran, stats say %d and %d",
						accBodies, approxBodies, gs.Accurate, gs.Approximate)
				}
				if !drops && gs.Dropped != 0 {
					t.Errorf("%d tasks dropped under a policy that never drops", gs.Dropped)
				}
				if drops {
					// The specials bypass the policy; the rest went through one accumulator.
					plain := float64(n - ones - zeros)
					if got := float64(gs.Accurate - ones); math.Abs(got-ratio*plain) > 1 {
						t.Errorf("Perforation ran %v of %v policy-decided tasks accurately, want %v ± 1", got, plain, ratio*plain)
					}
				}
			})
		}
	}
}
