package sig

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// checkRank fills a GTB(max) buffer with the given significances through
// Submit, in chunks of random length, runs rank over it with the given quota
// and requires the accurate set a stable sort by (Significance desc, Seq asc)
// picks. Sequence numbers are dealt in shuffled order, so "first in the
// buffer" and "lowest Seq" are different tasks.
func checkRank(t *testing.T, label string, sigs []float64, want int, rng *rand.Rand) {
	t.Helper()
	n := len(sigs)
	tasks := make([]Task, n)
	buf := make([]*Task, n)
	for i, seq := range rng.Perm(n) {
		tasks[i] = Task{Significance: sigs[i], Seq: uint64(seq + 1)}
		buf[i] = &tasks[i]
	}
	sorted := append([]*Task(nil), buf...)
	sort.SliceStable(sorted, func(i, j int) bool { return taskBefore(sorted[i], sorted[j]) })
	accurate := make(map[*Task]bool, want)
	for _, task := range sorted[:want] {
		accurate[task] = true
	}

	g := &Group{}
	g.setRatio(float64(want) / float64(n))
	p := &gtbPolicy{g: g}
	for rest := tasks; len(rest) > 0; {
		k := 1 + rng.Intn(min(len(rest), 2*slabSize))
		if out := p.Submit(nil, rest[:k]); len(out) != 0 {
			t.Fatalf("%s, n=%d: GTB(max) handed back %d tasks at Submit", label, n, len(out))
		}
		rest = rest[k:]
	}
	p.rank()
	if p.hist != ([rankBins]int32{}) {
		t.Fatalf("%s, n=%d want=%d: rank left counts in the ingest histogram", label, n, want)
	}
	for i, task := range buf {
		wantD := DecideApprox
		if accurate[task] {
			wantD = DecideAccurate
		}
		if task.Decision != wantD {
			t.Fatalf("%s, n=%d want=%d: task %d (sig %v, seq %d) decided %d, a stable sort decides %d",
				label, n, want, i, task.Significance, task.Seq, task.Decision, wantD)
		}
	}
	if p.decidedTotal != int64(n) || p.decidedAccurate != int64(want) {
		t.Fatalf("%s, n=%d want=%d: running totals %d/%d", label, n, want, p.decidedAccurate, p.decidedTotal)
	}
	for _, task := range p.scratch[:cap(p.scratch)] {
		if task != nil {
			t.Fatalf("%s, n=%d want=%d: rank left a task pinned in its scratch", label, n, want)
		}
	}
}

// rankDistributions are the significance streams the rank kernel is checked
// on: what separates by bin, what does not, and the values on the seams.
var rankDistributions = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() }},
	{"all equal", func(*rand.Rand) float64 { return 0.5 }},
	{"two values", func(rng *rand.Rand) float64 { return 0.25 + 0.5*float64(rng.Intn(2)) }},
	{"one bin", func(rng *rand.Rand) float64 { return (128 + 0.999*rng.Float64()) / rankBins }},
	{"bin edges", func(rng *rand.Rand) float64 { return float64(rng.Intn(rankBins+1)) / rankBins }},
	{"beside bin edges", func(rng *rand.Rand) float64 {
		return math.Nextafter(float64(1+rng.Intn(rankBins-1))/rankBins, float64(rng.Intn(2)))
	}},
	{"denormals", func(rng *rand.Rand) float64 { return float64(rng.Intn(40)) * math.SmallestNonzeroFloat64 }},
	// 0.0 and 1.0 never reach a built-in policy through the runtime, which
	// decides them itself; a custom policy wrapping GTB can hand them over.
	{"with 0.0 and 1.0", func(rng *rand.Rand) float64 {
		if k := rng.Intn(8); k < 2 {
			return float64(k)
		}
		return rng.Float64()
	}},
}

// TestRankMatchesStableSort is the differential test of the GTB rank kernel
// on both sides of rankByBinMin: every window length up to 160, a sample up
// to 600, a GTB(max) wave of 4096, and the quotas 0, 1, n-1, n and a random
// one. Every window is filled through Submit, so rankByBin ranks from the
// ingest histogram.
func TestRankMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(n, dist int) {
		d := rankDistributions[dist%len(rankDistributions)]
		sigs := make([]float64, n)
		for i := range sigs {
			sigs[i] = d.draw(rng)
		}
		for _, want := range []int{0, 1, n - 1, n, rng.Intn(n + 1)} {
			checkRank(t, d.name, sigs, want, rng)
		}
	}
	for n := 1; n <= 600; n++ {
		if n <= 160 || n%7 == 0 {
			check(n, n)
		}
	}
	for dist := range rankDistributions {
		for _, n := range []int{rankByBinMin - 1, rankByBinMin, rankByBinMin + 1, 600, 4096} {
			check(n, dist)
		}
	}
}

// lqhReference is LQH's decision as it was written before the branch-free
// count: float comparisons over a float history. The policy must reproduce
// it decision for decision.
type lqhReference struct {
	ratio           float64
	ring            []float64
	next            int
	total, accurate int64
}

func (st *lqhReference) decide(sig float64) Decision {
	ratio := st.ratio
	var accurate bool
	switch n := len(st.ring); {
	case ratio >= 1:
		accurate = true
	case ratio <= 0:
		accurate = false
	case n < 8:
		accurate = sig >= 1-ratio
	default:
		above := 0
		for _, h := range st.ring {
			if h > sig {
				above++
			}
		}
		accurate = float64(above)/float64(n) < ratio
	}
	if st.total > 0 {
		provided := float64(st.accurate) / float64(st.total)
		if provided > ratio+lqhDriftTolerance {
			accurate = false
		} else if provided < ratio-lqhDriftTolerance {
			accurate = true
		}
	}
	if len(st.ring) < DefaultLQHHistory {
		st.ring = append(st.ring, sig)
	} else {
		st.ring[st.next] = sig
		st.next = (st.next + 1) % DefaultLQHHistory
	}
	st.total++
	if accurate {
		st.accurate++
		return DecideAccurate
	}
	return DecideApprox
}

// TestLQHMatchesFloatCount replays significance streams through the policy
// and the reference and requires the same Decision at every step and the same
// running totals at the end.
func TestLQHMatchesFloatCount(t *testing.T) {
	if size := unsafe.Sizeof(lqhState{}); size%64 != 0 {
		t.Errorf("lqhState is %d bytes: neighbouring workers' states share a cache line", size)
	}
	negZero := math.Copysign(0, -1)
	streams := []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() }},
		{"constant", func(*rand.Rand) float64 { return 0.5 }},
		{"two values", func(rng *rand.Rand) float64 { return 0.25 + 0.5*float64(rng.Intn(2)) }},
		{"bin edges", func(rng *rand.Rand) float64 { return float64(rng.Intn(33)) / 32 }},
		{"denormals", func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) * math.SmallestNonzeroFloat64 }},
		{"zeros of both signs", func(rng *rand.Rand) float64 {
			return []float64{0, negZero, math.SmallestNonzeroFloat64, 0.5, 1}[rng.Intn(5)]
		}},
	}
	for _, stream := range streams {
		for _, ratio := range []float64{0, 0.1, 0.5, 0.85, 1} {
			rng := rand.New(rand.NewSource(32))
			g := &Group{}
			g.setRatio(ratio)
			p := newLQHPolicy(g, 1)
			ref := &lqhReference{ratio: ratio}
			for i := 0; i < 2000; i++ {
				sig := stream.draw(rng)
				got, want := p.WorkerDecide(0, &Task{Significance: sig}), ref.decide(sig)
				if got != want {
					t.Fatalf("%s, ratio %v: task %d (sig %v) decided %d, the float count decides %d",
						stream.name, ratio, i, sig, got, want)
				}
			}
			if st := &p.states[0]; st.total != ref.total || st.accurate != ref.accurate {
				t.Fatalf("%s, ratio %v: totals %d/%d, the float count has %d/%d",
					stream.name, ratio, st.accurate, st.total, ref.accurate, ref.total)
			}
		}
	}
}

// TestPolicyFlushAppends is the contract of the one flush: every built-in
// policy's Flush(dst) leaves dst's prefix untouched and appends exactly the
// tasks it had buffered, decided, once each, in submission order — whether or
// not dst has room for them. A policy that buffers nothing returns dst
// itself. Given an empty dst with room for its window, GTB returns its own
// buffer and adopts dst's array, and its next Submit writes into that array,
// never into the one it handed out. The runtime relies on all of it: it
// flushes into a pooled buffer and keeps whatever array comes back.
func TestPolicyFlushAppends(t *testing.T) {
	const buffered = 5 // below the GTB window: nothing is decided before the flush
	for _, kind := range []PolicyKind{PolicyAccurate, PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation} {
		for _, tc := range []struct{ prefix, room int }{{2, 0}, {2, 2 * buffered}, {0, 0}, {0, 2 * buffered}} {
			g := &Group{}
			g.setRatio(0.5)
			p := newPolicy(Config{Policy: kind, GTBWindow: 2 * buffered}, g, 2)
			tasks := make([]Task, 2*buffered)
			var held []*Task // what the policy kept at Submit
			for i := range tasks {
				tasks[i] = Task{Significance: float64(i+1) / 20, Seq: uint64(i + 1)}
			}
			for i := range tasks[:buffered] {
				if out := p.Submit(nil, tasks[i:i+1]); len(out) == 0 {
					held = append(held, &tasks[i])
				}
			}
			wantHeld := 0
			if kind == PolicyGTB || kind == PolicyGTBMaxBuffer {
				wantHeld = buffered
			}
			if len(held) != wantHeld {
				t.Fatalf("%v: Submit kept %d tasks, want %d", kind, len(held), wantHeld)
			}
			prefix := make([]Task, tc.prefix)
			dst := make([]*Task, tc.prefix, tc.prefix+tc.room)
			for i := range prefix {
				dst[i] = &prefix[i]
			}
			var own []*Task // the policy's buffer before the flush
			if gtb, ok := p.(*gtbPolicy); ok {
				own = gtb.buf
			}
			out := p.Flush(dst)
			if len(out) != len(dst)+len(held) {
				t.Fatalf("%v, %+v: Flush returned %d tasks after a prefix of %d and %d buffered", kind, tc, len(out), len(dst), len(held))
			}
			for i := range prefix {
				if out[i] != &prefix[i] {
					t.Fatalf("%v, %+v: Flush moved the prefix", kind, tc)
				}
			}
			if len(held) == 0 && (unsafe.SliceData(out) != unsafe.SliceData(dst) || cap(out) != cap(dst)) {
				t.Errorf("%v, %+v: a policy with nothing buffered must return dst itself", kind, tc)
			}
			// GTB trades arrays with an empty dst that can hold the window,
			// and appends into one that cannot: adopting a short array would
			// only regrow it at the next window's cost.
			trades := len(held) > 0 && tc.prefix == 0 && tc.room >= len(held)
			if gotOwn := len(held) > 0 && unsafe.SliceData(out) == unsafe.SliceData(own); gotOwn != trades {
				t.Errorf("%v, %+v: Flush handed out the policy's own buffer: %v, want %v", kind, tc, gotOwn, trades)
			}
			for i, task := range out[len(dst):] {
				if task != held[i] || task.Decision == decideNone {
					t.Errorf("%v, %+v: flushed task %d is %p (decision %d), want buffered task %p, decided", kind, tc, i, task, task.Decision, held[i])
				}
			}
			for i := range prefix {
				if prefix[i].Decision != decideNone {
					t.Errorf("%v, %+v: Flush decided a task of the prefix", kind, tc)
				}
			}
			if again := p.Flush(nil); len(again) != 0 {
				t.Errorf("%v, %+v: a second Flush handed back %d tasks again", kind, tc, len(again))
			}
			// What was handed out is the dispatcher's: buffering the next
			// window must not write into it.
			handed := slices.Clone(out)
			for i := buffered; i < len(tasks); i++ {
				p.Submit(nil, tasks[i:i+1])
			}
			if !slices.Equal(out, handed) {
				t.Errorf("%v, %+v: the next Submits wrote into the array Flush handed out", kind, tc)
			}
		}
	}
}

// TestIngestHistogramMatchesRecount: the per-bin counts GTB(max) keeps as
// tasks arrive, through Submit and SubmitBatch mixed and with the special
// values the runtime decides itself among them, equal a recount of its
// buffer; the taskwait's flush empties them.
func TestIngestHistogramMatchesRecount(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Policy: PolicyGTBMaxBuffer})
	defer rt.Close()
	g := rt.Group("hist", 0.5)
	p := g.policy.(*gtbPolicy)
	rng := rand.New(rand.NewSource(23))
	for _, d := range rankDistributions {
		for i := 0; i < 40; i++ {
			if rng.Intn(2) == 0 {
				rt.Submit(func() {}, WithLabel(g), WithSignificance(d.draw(rng)))
				continue
			}
			specs := make([]TaskSpec, 1+rng.Intn(3*slabSize))
			for j := range specs {
				specs[j] = TaskSpec{Fn: func() {}, Significance: specSig(d.draw(rng))}
			}
			rt.SubmitBatch(g, specs)
		}
		var recount [rankBins]int32
		g.mu.Lock()
		for _, task := range p.buf {
			recount[sigBin(task.Significance)]++
		}
		hist, n := p.hist, len(p.buf)
		g.mu.Unlock()
		if n == 0 {
			t.Fatalf("%s: nothing buffered", d.name)
		}
		if hist != recount {
			t.Fatalf("%s: the ingest histogram differs from a recount of the %d buffered tasks", d.name, n)
		}
		rt.Wait(g)
		g.mu.Lock()
		hist = p.hist
		g.mu.Unlock()
		if hist != ([rankBins]int32{}) {
			t.Fatalf("%s: the flush left counts in the ingest histogram", d.name)
		}
	}
}
