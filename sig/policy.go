package sig

import "math"

// PolicyKind selects one of the built-in accuracy policies.
type PolicyKind int

const (
	// PolicyAccurate executes every task accurately (the baseline).
	PolicyAccurate PolicyKind = iota
	// PolicyGTB is Global Task Buffering: tasks are buffered up to a
	// window, then the most significant fraction of each window runs
	// accurately. Larger windows trade decision latency for precision.
	PolicyGTB
	// PolicyGTBMaxBuffer is GTB with an unbounded window: every task is
	// buffered until taskwait, so the requested ratio is met exactly and
	// the accurate set is exactly the most significant tasks (the oracle
	// among the online policies).
	PolicyGTBMaxBuffer
	// PolicyLQH is Local Queue History: each worker decides at dequeue
	// time from a local history of recently seen significance values,
	// avoiding any global synchronization.
	PolicyLQH
	// PolicyPerforation ignores significance and drops tasks outright to
	// meet the ratio — the loop-perforation baseline the paper compares
	// against.
	PolicyPerforation
)

func (k PolicyKind) valid() bool {
	return k >= PolicyAccurate && k <= PolicyPerforation
}

// String returns the short name used throughout the evaluation output.
func (k PolicyKind) String() string {
	switch k {
	case PolicyAccurate:
		return "Accurate"
	case PolicyGTB:
		return "GTB"
	case PolicyGTBMaxBuffer:
		return "GTB(max)"
	case PolicyLQH:
		return "LQH"
	case PolicyPerforation:
		return "Perforation"
	}
	return "unknown"
}

// Decision is the outcome of a policy for one task.
type Decision uint8

const (
	// decideNone is the zero Decision of a not-yet-decided task.
	decideNone Decision = iota
	// DecideAccurate runs the accurate body.
	DecideAccurate
	// DecideApprox runs the approximate body. A task without one runs
	// nothing, counts as dropped and charges zero joules: the model's one
	// way to drop a task.
	DecideApprox
	// DecideAtWorker defers the decision to the dequeuing worker, which
	// resolves it through Policy.WorkerDecide.
	DecideAtWorker
)

// Policy parameters: DefaultGTBWindow is Config.GTBWindow's default, and
// DefaultLQHHistory is PolicyLQH's per-worker history length.
const (
	DefaultGTBWindow  = 32
	DefaultLQHHistory = 32
)

// Policy decides, per task, whether to run the accurate or the approximate
// version, from the task's significance and its group's target ratio. One
// policy instance serves one group. Submit and Flush are always called under
// the group lock, so their state needs no synchronization of its own;
// WorkerDecide may be called concurrently by different workers (with distinct
// worker ids) and must only touch per-worker state.
//
// Custom policies plug in through Config.NewPolicy without touching the
// scheduler: a policy only annotates tasks with a Decision. A task decided
// DecideApprox that has no approximate body is dropped (runs nothing,
// charges zero joules); PolicyPerforation drops by clearing the body. A
// policy must hand every task back exactly once across Submit and Flush —
// completed tasks are recycled by the runtime, so retaining a returned *Task
// is an error.
type Policy interface {
	// Submit offers a run of newly submitted tasks in submission order —
	// one task for a Submit, up to a slab of them for a SubmitBatch — whose
	// significances all lie strictly between 0 and 1 (the runtime decides
	// the special values itself). A policy appends every task it decides now
	// to dst, in dispatch order, and returns the extended slice; a task it
	// buffers it hands back later, from a Submit that fills its window or
	// from Flush. dst belongs to the runtime, which dispatches what was
	// appended once the group lock is released.
	Submit(dst []*Task, ts []Task) []*Task
	// Flush decides all buffered tasks and appends them to dst, returning
	// the extended slice; called at taskwait and Close. The runtime hands
	// in a pooled dispatch buffer and keeps whatever array comes back, so a
	// steady-state wave flush costs no heap. A policy that buffers nothing
	// returns dst. Given an empty dst, a policy may instead return its own
	// buffer and adopt dst's array as its next one: it must then never
	// write into the returned array again.
	Flush(dst []*Task) []*Task
	// WorkerDecide resolves a task the policy emitted with
	// DecideAtWorker; worker identifies the calling worker goroutine.
	WorkerDecide(worker int, t *Task) Decision
}

// newPolicy builds the built-in policy selected by cfg for group g.
func newPolicy(cfg Config, g *Group, workers int) Policy {
	switch cfg.Policy {
	case PolicyAccurate:
		return accuratePolicy{}
	case PolicyGTB:
		w := cfg.GTBWindow
		if w == 0 {
			w = DefaultGTBWindow
		}
		return &gtbPolicy{g: g, window: w}
	case PolicyGTBMaxBuffer:
		return &gtbPolicy{g: g, window: 0}
	case PolicyLQH:
		return newLQHPolicy(g, workers)
	case PolicyPerforation:
		return &perforationPolicy{g: g}
	}
	panic("sig: unreachable policy kind")
}

// accuratePolicy runs everything accurately.
type accuratePolicy struct{}

func (accuratePolicy) Submit(dst []*Task, ts []Task) []*Task {
	return decideAll(dst, ts, DecideAccurate)
}

// decideAll appends every task of ts to dst with decision d: the Submit of a
// policy that buffers nothing.
func decideAll(dst []*Task, ts []Task, d Decision) []*Task {
	for i := range ts {
		ts[i].Decision = d
		dst = append(dst, &ts[i])
	}
	return dst
}

func (accuratePolicy) Flush(dst []*Task) []*Task { return dst }

func (accuratePolicy) WorkerDecide(int, *Task) Decision { return DecideAccurate }

// perforationPolicy drops a significance-blind fraction of tasks using an
// error-diffusion accumulator, so any prefix of the stream satisfies the
// ratio within one task. The accumulator is a 32.32 fixed-point word under
// the group lock: one add per task, and a task runs accurately exactly when
// the addition carries into the integer half. A drop is DecideApprox with the
// approximate body cleared, so it retires in runGroup like every other
// decided task.
type perforationPolicy struct {
	g   *Group
	acc uint64
}

func (p *perforationPolicy) Submit(dst []*Task, ts []Task) []*Task {
	delta := uint64(math.Round(p.g.Ratio() * (1 << 32)))
	for i := range ts {
		t := &ts[i]
		before := p.acc
		p.acc += delta
		if p.acc>>32 != before>>32 {
			t.Decision = DecideAccurate
		} else {
			t.Decision, t.approx = DecideApprox, nil
		}
		dst = append(dst, t)
	}
	return dst
}

func (p *perforationPolicy) Flush(dst []*Task) []*Task { return dst }

func (p *perforationPolicy) WorkerDecide(int, *Task) Decision { return DecideAccurate }

// gtbPolicy is Global Task Buffering. window==0 means unbounded buffering
// (PolicyGTBMaxBuffer): decisions happen only at Flush, giving the exact
// top-ratio-by-significance assignment.
type gtbPolicy struct {
	g      *Group
	window int
	buf    []*Task
	// hist counts buf's tasks per significance bin (sigBin) as they arrive,
	// so a long window's rank starts from the histogram instead of a pass
	// over the buffer. rank empties it with the window it decides.
	hist [rankBins]int32
	// scratch is the reusable ranking workspace of rank; it only lives
	// between the entry and exit of one rank call (always under the group's
	// policy lock).
	scratch []*Task

	decidedTotal    int64
	decidedAccurate int64
}

func (p *gtbPolicy) Submit(dst []*Task, ts []Task) []*Task {
	for i := range ts {
		t := &ts[i]
		p.buf = append(p.buf, t)
		p.hist[sigBin(t.Significance)]++
		if p.window > 0 && len(p.buf) >= p.window {
			p.rank()
			dst = append(dst, p.buf...)
			p.buf = p.buf[:0]
		}
	}
	return dst
}

// Flush decides the remaining buffer and closes the wave's quota epoch: the
// running totals the per-window drift correction accumulates against are
// reset, so a ratio retargeted between waves (Group.SetRatio, the adaptive
// controller's knob) applies to the next wave alone instead of fighting the
// previous waves' accounting. Without the reset, a wave after a ratio
// change over- or under-shoots to drag the *cumulative* ratio onto the new
// target — a second integrator in the control loop that sends it into a
// limit cycle.
//
// The decided tasks leave in submission order. Given an empty dst that could
// hold them — the runtime's taskwait flush, once its pooled scratch arrays
// have grown to a wave — the buffer itself leaves and dst's array becomes the
// next one, so a GTB(max) wave is handed to the dispatcher without a copy and
// the next wave of its size buffers without growing. Otherwise they are
// appended to dst and the grown buffer array is kept for the next window.
// Either way the array handed out is the dispatcher's, which may still be
// handing it to the workers while new submissions buffer.
func (p *gtbPolicy) Flush(dst []*Task) []*Task {
	p.rank()
	p.decidedTotal, p.decidedAccurate = 0, 0
	switch {
	case len(p.buf) == 0:
		return dst
	case len(dst) == 0 && cap(dst) >= len(p.buf):
		out := p.buf
		p.buf = dst
		return out
	}
	out := append(dst, p.buf...)
	clear(p.buf)
	p.buf = p.buf[:0]
	return out
}

// rank marks the top share of the buffered tasks by significance accurate
// and the rest approximate. The accurate quota is computed against the
// running totals, so per-window rounding errors do not accumulate across
// windows. The order is (significance desc, Seq asc) — a strict total order,
// so the accurate set is identical to what a stable sort would pick — and a
// long window is cut by a histogram first (rankByBin), so only the tasks of
// one bin are ever compared with each other. It empties the histogram.
func (p *gtbPolicy) rank() {
	n := len(p.buf)
	if n == 0 {
		return
	}
	ratio := p.g.Ratio()
	want := int(math.Round(ratio*float64(p.decidedTotal+int64(n)))) - int(p.decidedAccurate)
	if want < 0 {
		want = 0
	}
	if want > n {
		want = n
	}
	switch {
	case want == 0:
		for _, t := range p.buf {
			t.Decision = DecideApprox
		}
	case want == n:
		for _, t := range p.buf {
			t.Decision = DecideAccurate
		}
	case n < rankByBinMin:
		p.scratch = append(p.scratch[:0], p.buf...)
		p.rankScratch(want)
	default:
		p.rankByBin(want)
	}
	p.decidedTotal += int64(n)
	p.decidedAccurate += int64(want)
	clear(p.hist[:])
}

// rankScratch marks the want top-ranked tasks of scratch accurate and the
// rest approximate by quickselect, and empties it: recycled tasks must not
// stay pinned until the next decide.
func (p *gtbPolicy) rankScratch(want int) {
	selectTopK(p.scratch, want)
	for i, t := range p.scratch {
		if i < want {
			t.Decision = DecideAccurate
		} else {
			t.Decision = DecideApprox
		}
	}
	clear(p.scratch)
	p.scratch = p.scratch[:0]
}

// rankBins is the resolution of the ingest histogram, and rankByBinMin the
// window length from which rankByBin beats a quickselect that chases every
// task pointer ~3 times (measured when rankByBin still counted the window in
// a pass of its own): GTB's 32-task windows stay below it, a GTB(max) wave is
// far above.
const (
	rankBins     = 256
	rankByBinMin = 128
)

// sigBin is the histogram bin of a significance in [0,1]. It is monotone, so
// a task in a higher bin is strictly more significant than one in a lower.
func sigBin(s float64) int {
	return max(0, min(int(s*rankBins), rankBins-1))
}

// rankByBin is rank for a long window, 0 < want < len(buf): a walk down the
// ingest histogram from the top bin finds the one the quota runs out in, and
// one pass marks everything above it accurate and everything below it
// approximate without comparing two tasks. Only the boundary bin's tasks are
// ranked against each other.
func (p *gtbPolicy) rankByBin(want int) {
	edge := rankBins - 1
	for ; int(p.hist[edge]) < want; edge-- {
		want -= int(p.hist[edge])
	}
	p.scratch = p.scratch[:0]
	for _, t := range p.buf {
		switch b := sigBin(t.Significance); {
		case b > edge:
			t.Decision = DecideAccurate
		case b < edge:
			t.Decision = DecideApprox
		default:
			p.scratch = append(p.scratch, t)
		}
	}
	p.rankScratch(want)
}

func (p *gtbPolicy) WorkerDecide(int, *Task) Decision { return DecideAccurate }

// taskBefore is the GTB ranking order: higher significance first, then lower
// Seq — a strict total order (Seq is unique within the group), which makes the
// top-k set deterministic.
func taskBefore(a, b *Task) bool {
	if a.Significance != b.Significance {
		return a.Significance > b.Significance
	}
	return a.Seq < b.Seq
}

// selectTopK partially orders s so that the k top-ranked tasks (per
// taskBefore) occupy s[:k], in O(len(s)) expected time. Only the membership
// of s[:k] is defined, not its internal order.
func selectTopK(s []*Task, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := partitionTasks(s, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partitionTasks partitions s[lo:hi+1] around a median-of-three pivot and
// returns the pivot's final index: everything before it ranks higher
// (taskBefore), everything after ranks lower.
func partitionTasks(s []*Task, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if taskBefore(s[mid], s[lo]) {
		s[lo], s[mid] = s[mid], s[lo]
	}
	if taskBefore(s[hi], s[lo]) {
		s[lo], s[hi] = s[hi], s[lo]
	}
	if taskBefore(s[hi], s[mid]) {
		s[mid], s[hi] = s[hi], s[mid]
	}
	pivot := s[mid]
	s[mid], s[hi] = s[hi], s[mid] // park pivot at hi
	i := lo
	for j := lo; j < hi; j++ {
		if taskBefore(s[j], pivot) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi] = s[hi], s[i]
	return i
}

// lqhPolicy is Local Queue History: tasks are forwarded to workers
// undecided, and each worker classifies them against a private ring of
// recently seen significance values — no shared state, no locks on the
// decision path. A small drift corrector keeps the locally provided ratio
// near the target when the significance distribution defeats the histogram
// estimate.
type lqhPolicy struct {
	g      *Group
	states []lqhState
}

// lqhState is one worker's history, a cache line of its own. The ring holds
// math.Float64bits of the significances seen: they are clamped to [0,1], where
// bit order is value order, so the decision counts without comparing floats.
type lqhState struct {
	ring     []uint64
	n        int
	next     int
	total    int64
	accurate int64
	_        [8]byte
}

func newLQHPolicy(g *Group, workers int) *lqhPolicy {
	p := &lqhPolicy{g: g, states: make([]lqhState, workers)}
	for i := range p.states {
		p.states[i].ring = make([]uint64, 0, DefaultLQHHistory)
	}
	return p
}

func (p *lqhPolicy) Submit(dst []*Task, ts []Task) []*Task {
	return decideAll(dst, ts, DecideAtWorker)
}

func (p *lqhPolicy) Flush(dst []*Task) []*Task { return dst }

// lqhDriftTolerance bounds how far the locally provided ratio may drift
// from the target before the histogram estimate is overridden.
const lqhDriftTolerance = 0.10

func (p *lqhPolicy) WorkerDecide(worker int, t *Task) Decision {
	st := &p.states[worker]
	ratio := p.g.Ratio()
	// Adding zero turns the -0.0 clamp01 lets through into +0.0, the one
	// value in range whose bits are out of order.
	sig := math.Float64bits(t.Significance + 0)
	var accurate bool
	switch {
	case ratio >= 1:
		accurate = true
	case ratio <= 0:
		accurate = false
	case st.n < 8:
		// Cold start: assume significance ~ U(0,1), so the top-ratio
		// quantile boundary sits at 1-ratio.
		accurate = t.Significance >= 1-ratio
	default:
		// Histogram estimate: the task runs accurately if its
		// significance lands in the top `ratio` fraction of the
		// local history. Both operands are below 2^63, so the sign bit
		// of sig-h says h > sig: a count with no data-dependent branch.
		var above uint64
		for _, h := range st.ring[:st.n] {
			above += (sig - h) >> 63
		}
		accurate = float64(int64(above))/float64(st.n) < ratio
	}
	// Drift correction against the locally provided ratio.
	if st.total > 0 {
		provided := float64(st.accurate) / float64(st.total)
		if provided > ratio+lqhDriftTolerance {
			accurate = false
		} else if provided < ratio-lqhDriftTolerance {
			accurate = true
		}
	}
	// Record the observation in the ring.
	if len(st.ring) < DefaultLQHHistory {
		st.ring = append(st.ring, sig)
		st.n = len(st.ring)
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
