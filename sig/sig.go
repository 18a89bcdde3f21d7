// Package sig implements a significance-aware task runtime in the spirit of
// Vassiliadis et al., "A Programming Model and Runtime System for
// Significance-Aware Energy-Efficient Computing" (PPoPP'15).
//
// Programmers submit tasks tagged with a significance value in [0,1] and,
// optionally, a cheap approximate version of the task body. A per-group
// accuracy ratio — the single quality knob of the model — asks the runtime to
// execute at least that fraction of the group's tasks accurately. A pluggable
// Policy (see policy.go) decides which tasks run accurately and which run
// approximately (or are dropped), trading result quality for energy.
//
// The runtime models energy instead of measuring hardware counters: workers
// account their busy time and two fixed per-core power figures convert it
// into Joules (see energy.go). Energy reports remain valid and stable
// after Close.
//
// The scheduler is built for submit throughput: every task, submitted singly
// or in a batch, is carved from a recycled slab (see pool.go), the submit path
// takes no runtime-wide lock and writes only cache lines the submitter owns,
// streamed tasks go through per-worker bounded queues with work stealing, and
// a taskwait's flushed window is published once and claimed in chunks by the
// workers and by the goroutine waiting on it (see queue.go and help). Every
// submission takes its group's lock to count and decide its tasks, and holds
// no lock while it enqueues them.
//
// The package is replay-deterministic (same submissions, same decisions,
// same modeled energy at any worker count) and siglint enforces the
// inputs to that property:
//
//siglint:deterministic
package sig

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Runtime.
type Config struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS. A
	// goroutine in Wait runs tasks too, so even one worker does not make
	// bodies mutually exclusive.
	Workers int
	// Policy selects the accuracy policy used by every task group.
	Policy PolicyKind
	// GTBWindow is the buffer size of PolicyGTB (0 means DefaultGTBWindow).
	GTBWindow int
	// QueueCapacity is the per-worker run-queue capacity, rounded up to a
	// power of two (0 means DefaultQueueCapacity). Submit applies
	// backpressure once every queue is full.
	QueueCapacity int
	// RecordDecisions makes each group keep an ordered log of
	// (significance, accurate) pairs for post-hoc policy-accuracy analysis
	// (Table 2). Off by default: it costs memory per task.
	RecordDecisions bool
	// NewPolicy, when non-nil, overrides Policy with a custom policy
	// constructor, called once per task group. Custom policies must hand
	// each task back exactly once across Submit/Flush: completed tasks are
	// recycled, so a policy must not retain a *Task it has returned. The
	// group lock serializes its Submit and Flush; it needs no lock of its own.
	NewPolicy func(g *Group) Policy
}

// Task is a unit of work submitted to the runtime. Policies read the exported
// fields and set Decision; the bodies themselves stay private to the runtime.
type Task struct {
	// Significance in [0,1]; larger values contribute more to output
	// quality. The special values are handled by the runtime itself:
	// 1.0 always runs accurately, 0.0 always approximately.
	Significance float64
	// Seq numbers the task within its group, from 1, in the order the
	// group's policy sees its tasks: the group's submitted count once the
	// task is counted (for deterministic tie-breaking).
	Seq uint64
	// Decision is set by the policy (or the runtime, for the special
	// significance values) before the task is dispatched.
	Decision Decision

	group    *Group
	accurate func()
	approx   func()
	// Declared nominal costs in units of ~1ns; negative means
	// undeclared (fall back to measured execution time).
	costAcc    float64
	costApprox float64
	wave       int
	slab       *taskSlab
}

// Group is a labeled set of tasks sharing an accuracy ratio, the unit of
// synchronization (taskwait) of the programming model. Its fields are laid
// out by who writes them per task — nobody, the submitter, the workers — a
// cache line of padding apart, so a Submit never waits for a line a completion
// just took, nor the other way round.
type Group struct {
	// Read-mostly: fixed at creation or rewritten at wave boundaries only.
	rt     *Runtime
	name   string
	policy Policy
	ratio  atomic.Uint64 // math.Float64bits of the requested accurate ratio
	wave   atomic.Int64  // taskwait epoch counter
	pendC  *sync.Cond
	_      [64]byte

	// Submitter-written. Every submission and every flush holds mu while it
	// counts its tasks, calls the policy and raises pending — and never while
	// it enqueues. out is the dst a Submit hands the policy, kept under mu.
	mu        sync.Mutex
	submitted atomic.Int64
	out       []*Task
	_         [64]byte

	// Worker-written. pending counts dispatched-but-unfinished tasks; Wait
	// falls back to the condition variable only when it has to block.
	pending     atomic.Int64
	waiters     atomic.Int32
	accurate    atomic.Int64
	approximate atomic.Int64
	dropped     atomic.Int64
	_           [64]byte

	// Cold. phaseMu guards the per-wave telemetry snapshot (endWave).
	pendMu   sync.Mutex
	logMu    sync.Mutex
	log      []DecisionRecord
	phaseMu  sync.Mutex
	waveBase waveSnapshot
}

// Ratio returns the currently requested accurate-execution ratio.
func (g *Group) Ratio() float64 { return math.Float64frombits(g.ratio.Load()) }

func (g *Group) setRatio(r float64) { g.ratio.Store(math.Float64bits(clamp01(r))) }

// clock is one busy-time account — one per worker, and one more that the
// goroutines helping from a taskwait share (see help) — padded to its own
// cache line so per-task accounting never false-shares.
type clock struct {
	busyNS atomic.Int64
	_      [56]byte
}

// Runtime is a significance-aware task scheduler. Create one with New, submit
// tasks with Submit or SubmitBatch, synchronize with Wait, and release it
// with Close. Submit and Wait must be called from the submitting
// goroutine(s), not from task bodies.
type Runtime struct {
	// Read-mostly after New: the per-task path only loads from these.
	cfg     Config
	workers int
	sched   *sched
	pools   taskPools
	clocks  []clock
	closed  atomic.Bool
	def     atomic.Pointer[Group]
	wg      sync.WaitGroup

	mu     sync.Mutex // guards groups/order; never on the submit path
	groups map[string]*Group
	order  []*Group
}

// New creates and starts a Runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sig: negative worker count %d", cfg.Workers)
	}
	if cfg.GTBWindow < 0 {
		return nil, fmt.Errorf("sig: negative GTBWindow %d", cfg.GTBWindow)
	}
	if cfg.QueueCapacity < 0 {
		return nil, fmt.Errorf("sig: negative queue capacity %d", cfg.QueueCapacity)
	}
	if cfg.NewPolicy == nil && !cfg.Policy.valid() {
		return nil, fmt.Errorf("sig: unknown policy kind %d", cfg.Policy)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queueCap := cfg.QueueCapacity
	if queueCap == 0 {
		queueCap = DefaultQueueCapacity
	}
	rt := &Runtime{
		cfg:     cfg,
		workers: workers,
		sched:   newSched(workers, queueCap),
		groups:  make(map[string]*Group),
		clocks:  make([]clock, workers+1),
	}
	rt.pools.init()
	rt.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go rt.worker(i)
	}
	return rt, nil
}

// Workers returns the size of the worker pool.
func (rt *Runtime) Workers() int { return rt.workers }

// Group returns the task group with the given name, creating it on first
// use, and sets its requested accurate ratio (clamped to [0,1]). Calling it
// again with the same name returns the same group with the ratio updated —
// this is what lets the translator resolve a taskwait's ratio clause onto
// submissions that textually precede it.
func (rt *Runtime) Group(name string, ratio float64) *Group {
	g, existed := rt.getOrCreateGroup(name, ratio)
	if existed {
		g.setRatio(ratio)
	}
	return g
}

func (rt *Runtime) getOrCreateGroup(name string, ratio float64) (*Group, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if g, ok := rt.groups[name]; ok {
		return g, true
	}
	g := &Group{rt: rt, name: name}
	g.pendC = sync.NewCond(&g.pendMu)
	g.setRatio(ratio)
	g.policy = rt.newPolicy(g)
	rt.groups[name] = g
	rt.order = append(rt.order, g)
	if name == "" {
		rt.def.Store(g)
	}
	return g, false
}

func (rt *Runtime) newPolicy(g *Group) Policy {
	if rt.cfg.NewPolicy != nil {
		return rt.cfg.NewPolicy(g)
	}
	return newPolicy(rt.cfg, g, rt.workers)
}

// defaultGroup is used by tasks submitted without WithLabel. It is created
// with ratio 1.0 on first use but never overrides a ratio the user set via
// rt.Group("", r). The created group is cached in an atomic pointer so
// unlabeled submission stays off rt.mu.
func (rt *Runtime) defaultGroup() *Group {
	if g := rt.def.Load(); g != nil {
		return g
	}
	g, _ := rt.getOrCreateGroup("", 1.0)
	return g
}

// admit takes g's lock for a submission and reports false — the lock
// released — on a closed runtime. Close stores closed, then takes every
// group's lock in its flush; a submission that held the lock first has its
// tasks in the policy buffer or in pending, one that gets it later reads closed.
//
//siglint:noalloc
func (rt *Runtime) admit(g *Group) bool {
	g.mu.Lock()
	if rt.closed.Load() {
		g.mu.Unlock()
		return false
	}
	return true
}

// decide is where a carved chunk of g's tasks meets its policy, under g.mu:
// what is decided now is appended to dst in dispatch order. The special
// significance values bypass the policy (§2 of the paper): 1.0 is
// unconditionally accurate, 0.0 unconditionally approximate. They cut the
// chunk into runs, and the policy takes each run in one call. Ownership of
// the tasks passes through: to the policy's buffer, or into dst for the
// caller to dispatch.
//
//siglint:poolput
//siglint:noalloc
func (g *Group) decide(dst []*Task, ts []Task) []*Task {
	for len(ts) > 0 {
		run := 0
		for run < len(ts) && !(ts[run].Significance >= 1.0 || ts[run].Significance <= 0.0) {
			run++
		}
		if run > 0 {
			dst = g.policy.Submit(dst, ts[:run]) //siglint:allocok policy boundary: policies append into dst, a reused runtime buffer, and buffer into their own reused window
			ts = ts[run:]
			continue
		}
		t := &ts[0]
		if t.Significance >= 1.0 {
			t.Decision = DecideAccurate
		} else {
			t.Decision = DecideApprox
		}
		dst = append(dst, t) //siglint:allocok amortized growth of a reused dispatch buffer (the caller's pooled scratch or Group.out)
		ts = ts[1:]
	}
	return dst
}

// Submit schedules fn as a significance-annotated task. Options attach the
// group label, the significance, an approximate body and the declared cost.
// Without options the task is fully significant and runs accurately.
//
//siglint:noalloc
func (rt *Runtime) Submit(fn func(), opts ...TaskOption) {
	if fn == nil {
		panic("sig: Submit with nil task body")
	}
	one := rt.pools.carve(1)
	t := &one[0]
	t.Significance, t.Decision = 1.0, decideNone
	t.group, t.accurate, t.approx = nil, fn, nil
	t.costAcc, t.costApprox = -1, -1
	for _, o := range opts {
		o(t) //siglint:allocok TaskOption callbacks are caller code; the runtime's own path stays allocation-free
	}
	if t.group == nil {
		t.group = rt.defaultGroup() //siglint:allocok one-time lazy creation of the default group, then a pointer load
	}
	g := t.group
	if g.rt != rt {
		// The task came from this runtime's pool: hand it back before
		// panicking so the failed call does not leak it.
		rt.pools.releaseChunk(one)
		panic("sig: task label belongs to a different runtime")
	}
	if !rt.admit(g) {
		rt.pools.releaseChunk(one)
		panic("sig: Submit on closed runtime")
	}
	t.Seq = uint64(g.submitted.Add(1))
	t.wave = int(g.wave.Load())
	// What is handed back is counted pending while the lock is held: a
	// concurrent Wait that flushes after us sees these tasks in the buffer or
	// pending — never neither. g.out is the group's, so what the policy
	// appended leaves it before the lock is released: a lone task as a batch
	// of one, a window by trading arrays with a pooled scratch.
	out := g.decide(g.out[:0], one)
	var lone [1]*Task
	var ready []*Task
	var scratch *[]*Task
	if n := len(out); n == 1 {
		lone[0], out[0] = out[0], nil
		ready = lone[:]
		g.pending.Add(1)
	} else if n > 1 {
		g.pending.Add(int64(n))
		scratch = rt.pools.getDispatch()
		*scratch, out = out, *scratch
		ready = *scratch
	}
	g.out = out[:0]
	g.mu.Unlock()
	rt.sched.enqueueBatch(ready)
	if scratch != nil {
		rt.pools.putDispatch(scratch)
	}
}

// TaskSpec describes one task for SubmitBatch; see options.go.

// SubmitBatch schedules every spec as a task of group g (nil means the
// default group). It is semantically a loop of Submit calls but amortizes
// the per-task scheduling costs — policy locking, queue locking and task
// carving (see pool.go) — across the batch, which
// makes it the preferred path for fine-grained task streams. A batch that
// races Close may panic after its first chunks were accepted; those run.
//
//siglint:noalloc
func (rt *Runtime) SubmitBatch(g *Group, specs []TaskSpec) {
	if len(specs) == 0 {
		return
	}
	if g == nil {
		g = rt.defaultGroup() //siglint:allocok one-time lazy creation of the default group, then a pointer load
	}
	if g.rt != rt {
		panic("sig: task label belongs to a different runtime")
	}
	// Validate every spec before carving anything: a nil body must not
	// dispatch a partial batch before panicking.
	for i := range specs {
		if specs[i].Fn == nil {
			panic("sig: SubmitBatch with nil task body")
		}
	}
	dispatchP := rt.pools.getDispatch() // decided tasks accumulated across the batch
	defer rt.pools.putDispatch(dispatchP)
	dispatch := *dispatchP
	for off := 0; off < len(specs); {
		chunk := rt.pools.carve(len(specs) - off) //siglint:leakok its tasks are handed on by decide, or released below
		for i := range chunk {
			sp := &specs[off+i]
			t := &chunk[i]
			// Zero value = fully significant (Submit's default);
			// negative = the special always-approximate 0.0.
			switch {
			case sp.Significance == 0:
				t.Significance = 1.0
			case sp.Significance < 0:
				t.Significance = 0.0
			default:
				t.Significance = clamp01(sp.Significance)
			}
			t.Decision = decideNone
			t.group = g
			t.accurate = sp.Fn
			t.approx = sp.Approx
			t.costAcc, t.costApprox = -1, -1
			if sp.HasCost {
				t.costAcc, t.costApprox = sp.CostAccurate, sp.CostApprox
			}
		}
		if !rt.admit(g) {
			rt.pools.releaseChunk(chunk)
			// Earlier chunks were accepted and are pending: deliver them.
			*dispatchP = dispatch
			rt.sched.enqueueBatch(dispatch)
			panic("sig: Submit on closed runtime")
		}
		// As in Submit, Seq is the group's count and the wave label is read
		// under the lock, so the policy sees the chunk in Seq order.
		base := uint64(g.submitted.Add(int64(len(chunk)))) - uint64(len(chunk))
		wave := int(g.wave.Load())
		for i := range chunk {
			chunk[i].Seq, chunk[i].wave = base+uint64(i)+1, wave
		}
		decided := len(dispatch)
		dispatch = g.decide(dispatch, chunk)
		// As in Submit, count what was handed to dispatch under the lock.
		if handed := int64(len(dispatch) - decided); handed > 0 {
			g.pending.Add(handed)
		}
		g.mu.Unlock()
		off += len(chunk)
	}
	*dispatchP = dispatch // recycle the grown scratch array
	rt.sched.enqueueBatch(dispatch)
}

// runChunk executes the tasks a worker popped or claimed and retires them
// per run of same-group tasks rather than one by one: the shared counters a
// completion touches are paid once per chunk instead of once per task.
func (rt *Runtime) runChunk(id int, ts []*Task) {
	for len(ts) > 0 {
		g := ts[0].group
		n := 1
		for n < len(ts) && ts[n].group == g {
			n++
		}
		rt.runGroup(id, g, ts[:n])
		ts = ts[n:]
	}
}

// runGroup executes ts, all tasks of g, and retires them together: one add
// per outcome counter, one busy-clock add — the sum of the same int64(cost)
// terms the bodies would have charged singly, so modeled joules are
// bit-identical — one completion count per slab run, and the pending count
// last, so a waiter released by it never reads counters that trail. The busy
// sum and the clock add saturate (addSat).
func (rt *Runtime) runGroup(id int, g *Group, ts []*Task) {
	var accurate, approximate, dropped, busy int64
	for _, t := range ts {
		d := t.Decision
		if d == DecideAtWorker {
			d = g.policy.WorkerDecide(id, t)
			t.Decision = d
		}
		switch d {
		case DecideAccurate:
			busy = addSat(busy, rt.runBody(t.accurate, t.costAcc))
			accurate++
			g.record(t, true)
		case DecideApprox:
			if t.approx != nil {
				busy = addSat(busy, rt.runBody(t.approx, t.costApprox))
				approximate++
			} else {
				// Body-less approximate execution is the model's task
				// dropping: no code runs, so it contributes zero modeled
				// joules (whatever cost was declared) and counts as dropped,
				// not approximate.
				dropped++
			}
			g.record(t, false)
		default:
			panic(fmt.Sprintf("sig: task executed with undecided decision %d", d))
		}
	}
	if accurate > 0 {
		g.accurate.Add(accurate)
	}
	if approximate > 0 {
		g.approximate.Add(approximate)
	}
	if dropped > 0 {
		g.dropped.Add(dropped)
	}
	if busy != 0 {
		// Both terms are non-negative, so a negative sum is a wrap: pin it
		// (a concurrent helper's add after the wrap is pinned the same way).
		if c := &rt.clocks[id].busyNS; c.Add(busy) < 0 {
			c.Store(math.MaxInt64)
		}
	}
	rt.pools.releaseAll(ts)
	g.leave(int64(len(ts)))
}

// runBody executes one task body and returns what it charges to the
// worker's busy account: the declared cost when the task carries one
// (deterministic), the measured execution time otherwise.
//
//siglint:wallclock measured-cost fallback; replayable runs declare costs and never take this path
func (rt *Runtime) runBody(body func(), cost float64) int64 {
	if cost >= 0 {
		body()
		return int64(cost)
	}
	start := time.Now()
	body()
	return int64(time.Since(start))
}

// leave retires n pending tasks. The fast path is a single atomic; the
// condition variable is only touched when a waiter announced itself.
//
//siglint:noalloc
func (g *Group) leave(n int64) {
	if g.pending.Add(-n) == 0 && g.waiters.Load() > 0 {
		g.pendMu.Lock()
		g.pendC.Broadcast()
		g.pendMu.Unlock()
	}
}

// waitIdle blocks until the group's pending count reaches zero.
func (g *Group) waitIdle() {
	if g.pending.Load() == 0 {
		return
	}
	g.pendMu.Lock()
	g.waiters.Add(1)
	for g.pending.Load() > 0 {
		g.pendC.Wait()
	}
	g.waiters.Add(-1)
	g.pendMu.Unlock()
}

//siglint:noalloc
func (g *Group) record(t *Task, accurate bool) {
	if !g.rt.cfg.RecordDecisions {
		return
	}
	g.logMu.Lock()
	g.log = append(g.log, DecisionRecord{Significance: t.Significance, Accurate: accurate, Wave: t.wave}) //siglint:allocok opt-in telemetry (RecordDecisions); documented as paying memory per task
	g.logMu.Unlock()
}

// providedRatio is the achieved accurate fraction over all decided tasks.
func (g *Group) providedRatio() float64 {
	_, acc, app, drop := g.counts()
	return provided(acc, acc+app+drop, g.Ratio())
}

// flush decides the group's buffered tasks and hands them to the workers:
// through the flush segment when the caller acquired it (viaSegment), else
// through the rings like a window. The policy flushes into the pooled
// scratch slice, so a steady-state taskwait performs no allocation at all.
func (rt *Runtime) flush(g *Group, viaSegment bool) {
	scratch := rt.pools.getDispatch()
	g.mu.Lock()
	ready := g.policy.Flush(*scratch)
	*scratch = ready // the grown array stays with the pooled header
	if len(ready) > 0 {
		g.pending.Add(int64(len(ready)))
	}
	g.mu.Unlock()
	if viaSegment {
		// The segment carries decided tasks only: whoever waits claims from
		// it too (help), and a policy's WorkerDecide is called by workers
		// alone. The built-in policies decide everything they flush.
		undecided := rt.cfg.NewPolicy != nil && anyAtWorker(ready)
		if len(ready) > 0 && !undecided {
			rt.sched.publish(ready, scratch)
			return
		}
		rt.sched.releaseSegment()
	}
	if len(ready) > 0 {
		rt.sched.enqueueBatch(ready)
	}
	rt.pools.putDispatch(scratch)
}

// anyAtWorker reports whether a flushed window still holds a task its policy
// left to the worker that runs it.
func anyAtWorker(ts []*Task) bool {
	for _, t := range ts {
		if t.Decision == DecideAtWorker {
			return true
		}
	}
	return false
}

// Flush is the non-blocking first half of a taskwait: it decides the group's
// buffered tasks and publishes them to the workers without waiting for them,
// so a caller holding several runtimes (sig/shard's Router.WaitPhase) can
// start every one before it waits on any. A following Wait or WaitPhase
// completes the wave exactly as if Flush had not been called. Flush never
// blocks on the scheduler: when an earlier flush on this runtime is still
// being claimed it leaves the buffer to that Wait.
func (rt *Runtime) Flush(g *Group) {
	if g == nil {
		g = rt.defaultGroup()
	}
	if rt.sched.acquireSegment() {
		rt.flush(g, true)
	}
}

// drain flushes the group's policy buffer, works through what is published
// alongside the workers and blocks until every task of the group has
// completed (or been dropped).
func (rt *Runtime) drain(g *Group) {
	rt.flush(g, rt.sched.acquireSegment())
	rt.help()
	g.waitIdle()
}

// help makes the taskwait a task scheduling point, as OpenMP's is: instead of
// parking while the workers run the window it just flushed — and paying a
// thread wake, which costs more than a short wave, to learn they are done —
// the waiting goroutine claims chunks of the segment like a worker until
// nothing is left to claim, so waitIdle usually finds the group idle. It
// takes from the segment only: everything there is decided, so no policy sees
// a worker id outside [0, Workers()), and the rings stay the workers'. The
// bodies it runs charge the busy-clock slot past the workers'.
//
// A body that panics here must kill the process as it would on a worker, not
// unwind into a caller that may recover around Wait and be left with a
// half-run chunk whose pending count never reaches zero: the panic is
// re-raised on a goroutine nobody can recover on, and this one parks in
// waitIdle until it lands.
func (rt *Runtime) help() {
	defer func() {
		if p := recover(); p != nil {
			go panic(p)
		}
	}()
	var batch [claimBatchSize]*Task
	for {
		n := rt.claim(batch[:])
		if n == 0 {
			return
		}
		rt.runChunk(rt.workers, batch[:n])
	}
}

// Wait is the taskwait of the model: it flushes the group's policy buffer,
// blocks until every task of the group has completed (or been dropped) and
// returns the accuracy ratio the run actually provided (cumulatively; see
// WaitPhase for the wave-local view). It is a task scheduling point: until
// the flushed window is claimed the calling goroutine runs tasks of it
// alongside the workers.
func (rt *Runtime) Wait(g *Group) float64 {
	if g == nil {
		g = rt.defaultGroup()
	}
	rt.WaitPhase(g)
	return g.providedRatio()
}

// WaitAll waits on every group ever created on this runtime.
func (rt *Runtime) WaitAll() {
	rt.mu.Lock()
	groups := append([]*Group(nil), rt.order...)
	rt.mu.Unlock()
	for _, g := range groups {
		rt.Wait(g)
	}
}

// Close drains all groups and stops the workers. It is idempotent. Energy
// and Stats remain valid after Close, and Energy is stable: no task runs
// after Close, so the busy clocks it reads no longer move and repeated calls
// return the identical report (`rt.Close(); rep := rt.Energy()`).
func (rt *Runtime) Close() error {
	if rt.closed.Swap(true) {
		return nil
	}
	// Every submission now reads closed or is found by this drain (see admit).
	rt.WaitAll()
	close(rt.sched.done)
	rt.wg.Wait()
	return nil
}

// Energy returns the modeled energy report: a live snapshot before Close,
// the final account after it.
func (rt *Runtime) Energy() Report {
	busy := time.Duration(rt.busyNS())
	return Report{Joules: joules(busy), Busy: busy, Workers: rt.workers}
}

// busyNS sums the busy clocks: the workers' and the taskwait helpers'.
func (rt *Runtime) busyNS() int64 {
	var busy int64
	for i := range rt.clocks {
		busy = addSat(busy, rt.clocks[i].busyNS.Load())
	}
	return busy
}

// addSat adds two busy-time terms, saturating at math.MaxInt64. Every term
// is non-negative — a declared cost in [0, 2^63) or a measured duration — so
// the account only ever stops at the ceiling, where several costs just under
// 2^63 would otherwise wrap it negative.
//
//siglint:noalloc
func addSat(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// Stats returns a snapshot of per-group task accounting. Workers retire
// completions a chunk at a time, so a snapshot taken mid-wave may trail the
// bodies that have run by up to one chunk per worker; at every taskwait
// boundary (Wait, WaitPhase, Close) it is exact.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	groups := append([]*Group(nil), rt.order...)
	rt.mu.Unlock()
	st := Stats{}
	for _, g := range groups {
		gs := g.stats()
		st.Groups = append(st.Groups, gs)
		st.Submitted += gs.Submitted
		st.Accurate += gs.Accurate
		st.Approximate += gs.Approximate
		st.Dropped += gs.Dropped
	}
	return st
}

//siglint:noalloc
func clamp01(x float64) float64 {
	switch {
	case x < 0 || math.IsNaN(x):
		return 0
	case x > 1:
		return 1
	}
	return x
}
