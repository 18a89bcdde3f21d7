package sig

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

// TestStatsDuringSaturatedSubmit is the regression test for the PR 1
// lock-coupling bug: Submit used to hold the runtime-wide mutex while
// blocking on a full queue, so a saturated submitter made Stats(), Energy()
// and Group() block too. The scheduler must keep observability calls
// responsive while a Submit is backpressured.
func TestStatsDuringSaturatedSubmit(t *testing.T) {
	rt, err := New(Config{Workers: 1, Policy: PolicyAccurate, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blocked := rt.Group("blocked", 1.0)
	rt.Submit(func() { <-release }, WithLabel(blocked))

	// Saturate the (tiny) worker queue until the submitter backpressures.
	submitsDone := make(chan struct{})
	go func() {
		defer close(submitsDone)
		for i := 0; i < 64; i++ {
			rt.Submit(func() {}, WithLabel(blocked), WithCost(1, 0))
		}
	}()
	// Give the submitter time to fill the queue and block.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-submitsDone:
		t.Fatal("expected the background submitter to be backpressured on the full queue")
	default:
	}

	probe := func(name string, f func()) {
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked behind a backpressured Submit", name)
		}
	}
	probe("Stats", func() { _ = rt.Stats() })
	probe("Energy", func() { _ = rt.Energy() })
	probe("Group", func() { _ = rt.Group("other", 0.5) })

	close(release)
	<-submitsDone
	rt.Wait(blocked)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Submitted; got != 65 {
		t.Errorf("expected 65 submitted tasks, got %d", got)
	}
}

// TestStressConcurrentSubmitWaitStats hammers every policy with concurrent
// scalar and batch submitters, taskwaits and stats readers, on a small
// queue so backpressure and stealing paths are exercised. Run with -race.
func TestStressConcurrentSubmitWaitStats(t *testing.T) {
	kinds := []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt, err := New(Config{Workers: 4, Policy: kind, QueueCapacity: 8, RecordDecisions: true})
			if err != nil {
				t.Fatal(err)
			}
			g := rt.Group("stress", 0.5)
			const producers = 4
			const perProducer = 300
			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Concurrent observers and waiters for the whole run.
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = rt.Stats()
						_ = rt.Energy()
					}
				}
			}()
			go func() {
				defer wg.Done()
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
				p := p
				prod.Add(1)
				go func() {
					defer prod.Done()
					if p%2 == 0 {
						for i := 0; i < perProducer; i++ {
							rt.Submit(func() {},
								WithLabel(g),
								WithSignificance(float64(i%11)/10), // includes 0.0 and 1.0
								WithApprox(func() {}),
								WithCost(10, 1))
						}
						return
					}
					specs := make([]TaskSpec, perProducer)
					for i := range specs {
						s := float64(i%11) / 10 // includes 1.0
						if i%11 == 0 {
							s = -1 // the always-approximate special value
						}
						specs[i] = TaskSpec{Fn: func() {}, Approx: func() {},
							Significance: s, HasCost: true,
							CostAccurate: 10, CostApprox: 1}
					}
					for off := 0; off < len(specs); off += 100 {
						rt.SubmitBatch(g, specs[off:off+100])
					}
				}()
			}
			prod.Wait()
			close(stop)
			wg.Wait()
			rt.Wait(g)

			st := rt.Stats()
			want := int64(producers * perProducer)
			if st.Submitted != want {
				t.Errorf("submitted %d, want %d", st.Submitted, want)
			}
			if got := st.Accurate + st.Approximate + st.Dropped; got != want {
				t.Errorf("decided %d (acc %d + approx %d + drop %d), want %d",
					got, st.Accurate, st.Approximate, st.Dropped, want)
			}

			// Concurrent idempotent Close.
			var closers sync.WaitGroup
			for i := 0; i < 3; i++ {
				closers.Add(1)
				go func() {
					defer closers.Done()
					if err := rt.Close(); err != nil {
						t.Error(err)
					}
				}()
			}
			closers.Wait()
			rep1, rep2 := rt.Energy(), rt.Energy()
			if rep1 != rep2 {
				t.Errorf("Energy unstable after concurrent Close: %+v vs %+v", rep1, rep2)
			}
		})
	}
}

// TestSubmitBatchMatchesSubmit checks the batch path lands the same decision
// on every task as scalar submission for the deterministic policies, the
// special significances included in both spellings (WithSignificance(0) and
// TaskSpec{Significance: -1}): both entrances share one decide step, and under
// every policy a 1.0 runs accurately and a 0.0 approximately.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	const n = 450
	sigOf := func(i int) float64 { return float64(i%11) / 10 } // 0.0 … 1.0
	run := func(batch bool, kind PolicyKind) []byte {
		rt, err := New(Config{Workers: 1, Policy: kind})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		g := rt.Group("batch", 0.4)
		// One slot per task, written by whichever body runs: '-' means none did.
		out := bytes.Repeat([]byte{'-'}, n)
		mark := func(i int, c byte) func() { return func() { out[i] = c } }
		if batch {
			specs := make([]TaskSpec, n)
			for i := range specs {
				specs[i] = TaskSpec{Fn: mark(i, 'A'), Approx: mark(i, 'x'),
					Significance: specSig(sigOf(i)), HasCost: true,
					CostAccurate: 100, CostApprox: 10}
			}
			rt.SubmitBatch(g, specs)
		} else {
			for i := 0; i < n; i++ {
				rt.Submit(mark(i, 'A'), WithLabel(g), WithSignificance(sigOf(i)),
					WithApprox(mark(i, 'x')), WithCost(100, 10))
			}
		}
		rt.Wait(g)
		return out
	}
	for _, kind := range []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyPerforation} {
		scalar, batch := run(false, kind), run(true, kind)
		if !bytes.Equal(scalar, batch) {
			t.Errorf("%v: scalar and batch decisions diverged\nscalar %s\nbatch  %s", kind, scalar, batch)
		}
		for i, c := range batch {
			if s := sigOf(i); (s == 1 && c != 'A') || (s == 0 && c != 'x') {
				t.Errorf("%v: task %d of significance %v ran %q", kind, i, s, c)
			}
		}
	}
}

// TestSubmitBatchSpecialValues: the special significance values must bypass
// the policy on the batch path exactly as on the scalar path.
func TestSubmitBatchSpecialValues(t *testing.T) {
	rt, err := New(Config{Workers: 1, Policy: PolicyGTBMaxBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("special", 0.5)
	var ranAcc, ranApprox bool
	rt.SubmitBatch(g, []TaskSpec{
		{Fn: func() { ranAcc = true }, Approx: func() {}, Significance: 1.0},
		// Negative significance is the batch spelling of the special
		// always-approximate value 0.0 (the zero value means 1.0).
		{Fn: func() {}, Approx: func() { ranApprox = true }, Significance: -1},
	})
	rt.Wait(g)
	if !ranAcc {
		t.Error("significance 1.0 did not run accurately via SubmitBatch")
	}
	if !ranApprox {
		t.Error("significance 0.0 did not run approximately via SubmitBatch")
	}

	// The zero-value spec mirrors Submit's default: fully significant,
	// runs accurately — never silently skipped.
	ranDefault := false
	rt.SubmitBatch(g, []TaskSpec{{Fn: func() { ranDefault = true }}})
	rt.Wait(g)
	if !ranDefault {
		t.Error("zero-value TaskSpec did not run its body accurately")
	}
}

// TestQueueCapacityValidation: negative capacities are rejected, tiny ones
// still drain correctly.
func TestQueueCapacityValidation(t *testing.T) {
	if _, err := New(Config{QueueCapacity: -1}); err == nil {
		t.Error("negative QueueCapacity accepted")
	}
	rt, err := New(Config{Workers: 2, Policy: PolicyAccurate, QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("tiny", 1.0)
	n := 0
	var mu sync.Mutex
	for i := 0; i < 500; i++ {
		rt.Submit(func() { mu.Lock(); n++; mu.Unlock() }, WithLabel(g))
	}
	if provided := rt.Wait(g); math.Abs(provided-1.0) > 1e-9 {
		t.Errorf("provided ratio %v, want 1.0", provided)
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 500 {
		t.Errorf("executed %d tasks, want 500", n)
	}
}
