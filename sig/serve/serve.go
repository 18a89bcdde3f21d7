// Package serve is the significance-aware load-shedding serving layer: it
// maps request traffic onto the sig runtime as significance-annotated task
// waves, so overload sheds result quality before it sheds requests.
//
// Callers submit Requests carrying a significance (user tier, staleness
// tolerance) and, optionally, a cheap Degraded handler. Admitted requests
// queue until a wave admits them: each wave the server pops requests up to a
// modeled work budget, submits them as one batch and taskwaits, then pops
// what queued meanwhile, while the budget still covers it, and taskwaits
// once more. An
// admission controller (adapt.TargetLoad) observes every wave and maps the
// measured load — queue depth and modeled joules of demand vs per-wave
// capacity, both computed from declared request costs — onto the group's
// accuracy ratio: as load climbs past the cap, the ratio drops and requests
// run their degraded handlers (or are skipped entirely, the model's task
// dropping), which shrinks per-request cost and raises throughput. Only
// when the queue is full despite maximum degradation does Submit reject —
// quality sheds first, requests last. A wave's record, WaveReport, is the
// runtime's sig.WaveStats and the controller's adapt.Sample for it, beside
// what only the serving layer knows (admissions, queue depth, budget, wall
// time).
//
// Time enters the package through one seam, the WaveClock: deadlines,
// latency stamps and the per-wave wall-time measurement all read it. Each
// wave's measured wall time feeds a bounded EWMA (MeasuredPeriod) that
// prices the RetryAfter backoff hint honestly, sets the wave cadence (the
// EWMA clamped into [MinPeriod, 8×WavePeriod]) and the wave budget (measured
// period × workers) — the closed measured-feedback loop, as opposed to
// trusting the configured WavePeriod open-loop. Every wave runs that one
// discipline, whether the pump (Start's, or FakeClock.Run's in fake time) or
// an explicit RunWave fires it. When a wave fires and what interval it is
// priced on is decided in one place, the pacer (pacer.go), which stores the
// EWMA and the last wave's start and derives the cadence, the due time and
// the wave budget (its price) from them.
//
// Every wave runs on one sig.Runtime, built at New and closed by Close, in
// one group: the paper's runtime, one scheduler over the machine's cores.
// So, as after the paper's taskwait, a wave's per-request state is free the
// moment the wave ends: its ran flags reset and its batch is let go then.
//
// With declared costs, the deterministic policy every wave runs under (GTB
// max buffering), a deterministic arrival order and a FakeClock behind the
// seam, the whole closed loop — when each wave fires (FakeClock.Run), ratio
// trajectory, per-request outcomes, modeled joules, measured cadence —
// replays bit-identically; the harness's serving studies and the regression
// suite rely on it.
//
//siglint:deterministic
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/sig"
	"repro/sig/adapt"
)

// Defaults for Config's zero fields, and the two fixed tuning constants.
const (
	// DefaultQueueLimit bounds the admission queue.
	DefaultQueueLimit = 4096
	// DefaultWavePeriod is the Start pump's wave cadence, and the basis of
	// the default wave budget.
	DefaultWavePeriod = 5 * time.Millisecond
	// DefaultTargetLoad is the load cap the admission controller regulates
	// to: 1.0 = modeled demand equals modeled per-wave capacity.
	DefaultTargetLoad = 1.0
	// DefaultDrainGain is the fraction of the queued backlog the load
	// signal asks each wave to absorb on top of fresh arrivals. Fixed.
	DefaultDrainGain = 0.5
	// DefaultRequestCost is the admission estimate (in cost units, ~1ns)
	// for requests that declare no accurate cost. Fixed.
	DefaultRequestCost = 100_000
	// DefaultQualityWindow is the averaging horizon, in waves, of the
	// windowed quality floor when QualityFloor is set without a window.
	DefaultQualityWindow = 16
)

// groupName names the serving task group on the runtime.
const groupName = "serve"

// Request is one unit of service traffic.
type Request struct {
	// Significance in [0,1] orders requests for degradation: higher
	// values keep their accurate handler longer as load climbs. The
	// special values bypass the policy — 1.0 (e.g. a premium tier) always
	// runs Handler, 0.0 (e.g. a best-effort prefetch) never does. Submit
	// refuses a value outside [0, 1], NaN included, before a ticket is
	// drawn: the priority lane and the specials would read it as in range.
	Significance float64
	// Handler is the accurate request body (required).
	Handler func()
	// Degraded is the optional cheap body run when the request is shed to
	// approximate execution (a coarser thumbnail, a stale cache fill). A
	// request shed without one is skipped entirely — OutcomeDropped — and
	// contributes zero modeled joules.
	Degraded func()
	// Deadline, when non-zero, bounds how long the request may wait for
	// service. A request already past its deadline at Submit is rejected
	// immediately with ErrDeadlineExpired; one that expires while queued is
	// resolved at the next wave boundary with OutcomeTimedOut. Either way
	// no handler runs and the request contributes zero modeled joules —
	// its ticket is released like any other.
	Deadline time.Time
	// CostAccurate/CostDegraded declare the handlers' nominal work in
	// cost units (~1ns, see sig.WithCost). Declared costs make admission
	// pacing and the modeled energy account deterministic; a request
	// without them is paced at DefaultRequestCost and its execution time
	// is measured instead. Declarations are all-or-nothing per handler
	// pair: Submit rejects a CostDegraded without a CostAccurate, and a
	// Degraded handler whose cost is left undeclared while CostAccurate
	// is set — half-declared costs would silently model shed work as free.
	// Submit also rejects a cost outside [0, 2^63): the runtime accounts a
	// body's cost as int64 nanoseconds, and a larger one would wrap it.
	CostAccurate float64
	CostDegraded float64
}

// Outcome is how a completed request was ultimately served.
type Outcome int

const (
	// OutcomeAccurate: the full-quality Handler ran.
	OutcomeAccurate Outcome = iota
	// OutcomeDegraded: the Degraded handler ran.
	OutcomeDegraded
	// OutcomeDropped: the request was shed without running any body.
	OutcomeDropped
	// OutcomeTimedOut: the request's Deadline expired while it was queued;
	// no body ran and zero joules were charged.
	OutcomeTimedOut

	outcomeCount = iota
)

func (o Outcome) String() string {
	switch o {
	case OutcomeAccurate:
		return "accurate"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeDropped:
		return "dropped"
	case OutcomeTimedOut:
		return "timed-out"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Errors returned by Submit.
var (
	// ErrQueueFull: the admission queue is at QueueLimit — the request is
	// shed. Under the admission controller this only happens once quality
	// degradation alone can no longer absorb the offered load. The returned
	// error is an *OverloadError wrapping this sentinel, carrying a
	// retry-after backoff hint.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadlineExpired: the request's Deadline had already passed at
	// Submit — it is rejected without queueing (and counted as timed out).
	ErrDeadlineExpired = errors.New("serve: request deadline expired")
	// ErrClosed: the server is shutting down.
	ErrClosed = errors.New("serve: server closed")
)

// OverloadError is the queue-full rejection: it wraps ErrQueueFull (so
// errors.Is(err, ErrQueueFull) keeps working) and carries a backoff hint —
// the modeled time to drain the current backlog at the current ratio and
// wave budget. Clients can surface it directly as a Retry-After header.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: admission queue full (retry after %v)", e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrQueueFull }

// Config parameterizes a Server. Zero fields take defaults.
type Config struct {
	// Workers is the worker count of the underlying sig runtime; zero
	// means GOMAXPROCS. The runtime's policy is not configurable: waves run
	// under GTB max buffering, the deterministic significance oracle the
	// replay guarantee (package doc) rests on. A server that must never
	// degrade sets MinRatio to 1.
	Workers int
	// QueueLimit bounds the admission queue; Submit returns ErrQueueFull
	// beyond it (default DefaultQueueLimit). With a priority lane enabled, a
	// quarter of the limit (at least one slot) is the priority lane's own
	// and the bulk FIFO keeps the remainder.
	QueueLimit int
	// PriorityAt, when in (0,1], enables the priority admission lane:
	// requests with Significance at or above it queue in a second lane
	// that each wave drains ahead of the bulk FIFO — premium tiers bypass
	// the backlog. The lane owns its slice of the queue limit outright
	// (which is why it needs QueueLimit ≥ 2), so bulk traffic can never
	// starve premium admission, and it has its own depth/latency accounting
	// (LaneDepths, the per-lane wave-latency histogram in WriteMetrics).
	PriorityAt float64
	// WaveBudget is the modeled work (cost units, ~1ns) the first wave
	// admits, before the pacer has measured anything; from then on every
	// wave is priced at the pacer's effective period × workers.
	// Default: resolved workers × WavePeriod in nanoseconds.
	WaveBudget float64
	// TargetLoad is the cap the admission controller holds the load
	// signal under (default DefaultTargetLoad). Lower values keep more
	// headroom at the price of earlier degradation.
	TargetLoad float64
	// MinRatio floors the admission controller's ratio — the service's
	// quality contract. 0 allows full degradation.
	MinRatio float64
	// QualityFloor, when positive, holds the serving quality SLO as a
	// long-run average instead of (or on top of) the per-wave MinRatio:
	// the mean provided ratio over the last QualityWindow waves stays at
	// or above QualityFloor (adapt.WindowFloor). Individual waves may
	// still dip below it during transients — the window absorbs them.
	QualityFloor float64
	// QualityWindow is the floor's averaging horizon in waves (default
	// DefaultQualityWindow; requires QualityFloor > 0).
	QualityWindow int
	// WavePeriod is the cadence Start's pacer starts from, and the basis of
	// the default wave budget (default DefaultWavePeriod). Once a wave has
	// been measured the cadence is the measured wall-time EWMA, clamped;
	// WavePeriod is then only the pre-measurement guess.
	WavePeriod time.Duration
	// MinPeriod floors the pacer: the cadence tracks the measured-period
	// EWMA but never leaves [MinPeriod, 8×WavePeriod] (default
	// WavePeriod/4). It must not exceed WavePeriod.
	MinPeriod time.Duration
	// Clock injects the serving layer's time source (nil = the monotonic
	// wall clock). A FakeClock behind this seam makes the whole
	// measured-time loop — deadlines, MeasuredPeriod, the pacer cadence,
	// RetryAfter pricing — deterministic for replay.
	Clock WaveClock
}

func (c Config) withDefaults(workers int) Config {
	if c.QueueLimit <= 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.WavePeriod <= 0 {
		c.WavePeriod = DefaultWavePeriod
	}
	if c.MinPeriod <= 0 {
		c.MinPeriod = c.WavePeriod / minPeriodDiv
	}
	if c.WaveBudget <= 0 {
		// The one default-budget derivation: workers × period, the
		// arithmetic the pacer's price uses once a wave has measured.
		c.WaveBudget = float64(workers) * float64(c.WavePeriod.Nanoseconds())
	}
	if c.TargetLoad <= 0 {
		c.TargetLoad = DefaultTargetLoad
	}
	if c.QualityFloor > 0 && c.QualityWindow == 0 {
		c.QualityWindow = DefaultQualityWindow
	}
	return c
}

// costSums aggregates declared request costs so the load signal is O(1) in
// the queue length.
type costSums struct {
	acc float64 // Σ accurate cost
	deg float64 // Σ degraded cost (0 contribution for drop-only requests)
}

//siglint:noalloc
func (s *costSums) add(c costSums) { s.acc += c.acc; s.deg += c.deg }

//siglint:noalloc
func (s *costSums) sub(c costSums) { s.acc -= c.acc; s.deg -= c.deg }

//siglint:noalloc
func (s costSums) at(r float64) float64 { return r*s.acc + (1-r)*s.deg }

// WaveReport is the record of one serving wave: the runtime's telemetry of
// the wave (Stats), what the admission controller decided from it (Control)
// and what only the serving layer knows — admission, the queue, the wave
// budget and the measured wall time. The wave's index, the ratio it ran at
// and the one it provided, its joules and its outcome split are Stats'
// alone, the next ratio and the load signal Control's.
type WaveReport struct {
	// Stats is the wave's runtime telemetry, its taskwaits' merged (see
	// RunWave), indexed by the server's wave count. Stats.Accurate,
	// Stats.Approximate and Stats.Dropped split Admitted by outcome (degraded
	// is Approximate); Stats.RequestedRatio ran the wave.
	Stats sig.WaveStats
	// Control is the admission controller's step on the wave:
	// Control.NextRatio commands the next one, and Control.Measure is the
	// load signal it regulated (demand+backlog over capacity, see package
	// doc; Server.Load reads the last one).
	Control adapt.Sample
	// Admitted is how many requests the wave served: Stats.Submitted, kept
	// under the name the benchmark's layer ladder reads. TimedOut counts
	// queued requests whose deadline expired before this wave could admit
	// them — resolved without running, on top of Admitted.
	Admitted int
	TimedOut int
	// PriorityAdmitted is how many of Admitted came through the priority
	// lane. Zero without a configured lane.
	PriorityAdmitted int
	// Depth is the admission-queue depth after the wave's admissions.
	Depth int
	// Budget is the pacer's price once the wave's wall time is folded in:
	// the modeled capacity the next wave admits against and prices its load
	// on (Server.Budget, read at the wave's end).
	Budget float64
	// WallTime is the wave's measured wall time (first admission through
	// last taskwait), read through the WaveClock seam; it is the sample that
	// feeds the MeasuredPeriod EWMA.
	WallTime time.Duration
	// Overrun marks a wave whose WallTime exceeded the cadence that fired
	// it; such waves are counted in Totals.Overruns and the next wave
	// starts immediately — never a dropped tick.
	Overrun bool
}

// Totals is the server's cumulative accounting. A request is counted under
// its outcome before its Done closes; the per-wave fields (Waves, Overruns)
// are counted by the time its wave ends. Joules is the runtime's live, exact
// account (sig.Runtime.Energy): it includes every body that has returned,
// and is final after Close. Every snapshot conserves,
// even one taken while waves run: Completed is exactly Accurate + Degraded
// + Dropped + the queued timeouts, Submitted ≥ Completed + Rejected, and
// Priority ≤ Completed.
type Totals struct {
	Submitted int64
	Rejected  int64
	Completed int64
	Accurate  int64
	Degraded  int64
	Dropped   int64
	// TimedOut counts deadline expiries: requests rejected already-expired
	// at Submit plus queued requests resolved OutcomeTimedOut. The former
	// are also counted in Rejected, the latter in Completed.
	TimedOut int64
	// Priority counts completed requests that were admitted through the
	// priority lane (whatever their outcome); they are also in Completed.
	Priority int64
	Waves    int64
	// Overruns counts waves whose measured wall time exceeded the
	// cadence that fired them. Each one ran to completion and the next
	// wave followed immediately — the pacer counts overruns where a fixed
	// Ticker would silently coalesce the late ticks.
	Overruns int64
	// EarlyWaves counts pump waves that started before they were due:
	// fired by an arrival at an idle, non-shedding server instead of by the
	// cadence. A wave an arrival fires at or past its due time is a cadence
	// wave and is not counted.
	EarlyWaves int64
	Joules     float64
}

// Server admits requests as significance-annotated task waves on one sig
// runtime. Create one with New; let Start pump waves on the pacer's cadence
// (or FakeClock.Run, the same pump in fake time), or fire one explicitly
// with RunWave; stop with Close.
type Server struct {
	cfg Config
	ctl *adapt.Controller

	// rt executes the waves and grp is the serving group on it; runWave
	// hands the controller each wave WaitPhase returns.
	rt  *sig.Runtime
	grp *sig.Group

	// clock is the WaveClock seam (Config.Clock, or the wall clock). pace
	// is the pacer: every piece of state that decides when a wave fires and
	// what interval it is priced on lives there, none here.
	clock WaveClock
	pace  pacer

	// waveMu serializes RunWave with itself and with Close's final drain,
	// so shutdown can never tear the runtime down under an in-flight wave
	// (which would panic the wave's batch submit and strand its tickets).
	waveMu  sync.Mutex
	stopped bool // runtime closed; RunWave becomes a no-op (guarded by waveMu)

	mu        sync.Mutex
	lanes     [laneCount]lane // the admission lanes (q and cost guarded by mu)
	arrCost   costSums        // declared costs of arrivals since the last wave (all lanes)
	deadlined int             // queued requests (all lanes) carrying a deadline
	closed    bool
	lastLoad  float64

	// Per-wave hot-path state, reused across waves (see hotpath.go): admit's
	// batch buffer and the expected cost it holds, the specs staged since the
	// last submit, and one flag per admitted request, in admission order,
	// that the body which served it sets (bodyEnd) and the wave's end resets
	// (endWave). All but the flags are touched only under waveMu.
	wavePending []*Ticket
	waveCost    float64   // expected cost of wavePending at the wave's ratio
	waveExpired []*Ticket // deadline-expired requests skimmed by admit
	specs       []sig.TaskSpec
	ran         []atomic.Bool // 2 × QueueLimit, sized once in New
	// followOnCost is the declared cost of what the wave's follow-on
	// admission popped: measure still prices it as backlog (guarded by mu).
	followOnCost costSums

	// closeDone is closed (after closeErr is set) once the winning Close
	// finished draining and closed the runtime; losing concurrent Close
	// calls block on it so a returned Close always means "shut down".
	closeDone chan struct{}
	closeErr  error

	// wave is the index of the wave in flight (of the next one between
	// waves). tot is the accounting behind Totals: resolved requests by
	// Outcome — Completed is their sum, so no snapshot can tear it from its
	// parts — and the Submits rejected already expired.
	wave atomic.Int64
	tot  struct {
		submitted, rejected  atomic.Int64
		outcomes             [outcomeCount]atomic.Int64
		preExpired, priority atomic.Int64
	}

	pumpStop chan struct{}
	pumpDone chan struct{}
}

// New builds and starts a Server (its runtime workers start immediately;
// waves only run under a pump — Start, or FakeClock.Run — or via RunWave).
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("serve: negative worker count %d", cfg.Workers)
	}
	// The !(in range) form rejects NaN too, which every comparison fails.
	if !(cfg.MinRatio >= 0 && cfg.MinRatio <= 1) {
		return nil, fmt.Errorf("serve: MinRatio %v outside [0,1]", cfg.MinRatio)
	}
	if !(cfg.PriorityAt >= 0 && cfg.PriorityAt <= 1) {
		return nil, fmt.Errorf("serve: PriorityAt %v outside [0,1]", cfg.PriorityAt)
	}
	if !(cfg.QualityFloor >= 0 && cfg.QualityFloor <= 1) {
		return nil, fmt.Errorf("serve: QualityFloor %v outside [0,1]", cfg.QualityFloor)
	}
	if math.IsNaN(cfg.WaveBudget) || math.IsInf(cfg.WaveBudget, 0) {
		return nil, fmt.Errorf("serve: non-finite WaveBudget %v", cfg.WaveBudget)
	}
	if cfg.QualityWindow != 0 && cfg.QualityFloor == 0 {
		return nil, fmt.Errorf("serve: QualityWindow %d without QualityFloor", cfg.QualityWindow)
	}
	if cfg.QualityWindow < 0 {
		return nil, fmt.Errorf("serve: negative QualityWindow %d", cfg.QualityWindow)
	}
	// The runtime resolves Workers == 0 to GOMAXPROCS; the default budget is
	// priced on the pool it actually started, and every error from here on
	// closes it.
	rt, err := sig.New(sig.Config{Workers: cfg.Workers, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Server, error) {
		_ = rt.Close() // a fresh runtime: Close only reports double-close
		return nil, err
	}
	workers := rt.Workers()
	cfg = cfg.withDefaults(workers)
	if cfg.PriorityAt > 0 && cfg.QueueLimit < 2 {
		return fail(fmt.Errorf("serve: PriorityAt needs QueueLimit >= 2 (got %d): each lane owns at least one slot", cfg.QueueLimit))
	}
	if cfg.MinPeriod > cfg.WavePeriod {
		return fail(fmt.Errorf("serve: MinPeriod %v exceeds WavePeriod %v", cfg.MinPeriod, cfg.WavePeriod))
	}
	// A wave's two admissions pop at most a full queue each, so one set of
	// ran flags covers every wave.
	s := &Server{cfg: cfg, closeDone: make(chan struct{}), rt: rt, ran: make([]atomic.Bool, 2*cfg.QueueLimit)}
	s.clock = cfg.Clock
	if s.clock == nil {
		s.clock = wallClock{}
	}
	s.pace.init(&cfg, workers, s.clock.Now())
	s.lanes[laneBulk].limit = cfg.QueueLimit
	if cfg.PriorityAt > 0 {
		// The priority lane owns a quarter of the limit outright (at least
		// one slot); the bulk FIFO keeps the remainder.
		s.lanes[lanePriority].limit = max(cfg.QueueLimit/4, 1)
		s.lanes[laneBulk].limit -= s.lanes[lanePriority].limit
	}
	var wf *adapt.WindowFloor
	if cfg.QualityFloor > 0 {
		wf = &adapt.WindowFloor{Window: cfg.QualityWindow, Floor: cfg.QualityFloor}
	}
	s.ctl, err = adapt.New(adapt.Config{
		Objective:   adapt.TargetLoad,
		Budget:      cfg.TargetLoad,
		Measure:     s.measure,
		Min:         cfg.MinRatio,
		WindowFloor: wf,
	})
	if err != nil {
		return fail(err)
	}
	s.grp = rt.Group(groupName, 1.0) // start at full quality
	return s, nil
}

// Ratio returns the admission controller's current accuracy ratio.
//
//siglint:noalloc
func (s *Server) Ratio() float64 {
	return s.grp.Ratio() //siglint:allocok crosses into sig, where noalloc has no cross-package facts: Group.Ratio is one atomic load
}

// Depth returns the current admission-queue depth across all lanes.
func (s *Server) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depthLocked()
}

// depthLocked is Depth for callers that hold s.mu.
//
//siglint:noalloc
func (s *Server) depthLocked() (n int) {
	for i := range s.lanes {
		n += len(s.lanes[i].q)
	}
	return n
}

// backlogLocked sums the declared costs queued in lane ln and in every lane
// a wave drains ahead of it (the higher indices) — the work a request
// joining lane ln waits behind; backlogLocked(laneBulk) is the whole queue.
// Caller holds s.mu.
//
//siglint:noalloc
func (s *Server) backlogLocked(ln int) (c costSums) {
	for ; ln < laneCount; ln++ {
		c.add(s.lanes[ln].cost)
	}
	return c
}

// LaneDepths returns the per-lane queue depths (prio is 0 without a
// configured priority lane).
func (s *Server) LaneDepths() (bulk, prio int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lanes[laneBulk].q), len(s.lanes[lanePriority].q)
}

// Load returns the last wave's measured load signal.
func (s *Server) Load() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLoad
}

// Budget returns the current modeled per-wave capacity, the pacer's price:
// the configured WaveBudget until a wave has measured, then the effective
// measured period × workers.
func (s *Server) Budget() float64 { return s.pace.price() }

// Totals returns the cumulative serving counters.
func (s *Server) Totals() Totals {
	t, _ := s.totals()
	return t
}

// totals is Totals plus the per-outcome counts it sums into Completed. The
// load order is what keeps a snapshot conserved against concurrent writers,
// each of which counts a request from left to right along submitted →
// outcome → priority (or submitted → rejected → preExpired): a counter is
// loaded before every counter its writers bump ahead of it.
func (s *Server) totals() (Totals, [outcomeCount]int64) {
	t := Totals{Priority: s.tot.priority.Load()}
	var byOutcome [outcomeCount]int64
	for o := range byOutcome {
		byOutcome[o] = s.tot.outcomes[o].Load()
		t.Completed += byOutcome[o]
	}
	t.Accurate = byOutcome[OutcomeAccurate]
	t.Degraded = byOutcome[OutcomeDegraded]
	t.Dropped = byOutcome[OutcomeDropped]
	t.TimedOut = s.tot.preExpired.Load() + byOutcome[OutcomeTimedOut]
	t.Rejected = s.tot.rejected.Load()
	t.Submitted = s.tot.submitted.Load()
	t.Waves = s.wave.Load()
	t.Overruns = s.pace.overruns.Load()
	t.EarlyWaves = s.pace.earlyWaves.Load()
	t.Joules = s.rt.Energy().Joules
	return t, byOutcome
}

// MeasuredPeriod returns the bounded EWMA of measured wave wall time — the
// server's honest estimate of what one wave actually costs in real time —
// or the configured WavePeriod before the first wave has measured.
func (s *Server) MeasuredPeriod() time.Duration {
	if m := s.pace.measuredNs.Load(); m > 0 {
		return time.Duration(m)
	}
	return s.cfg.WavePeriod
}

// PacePeriod returns the pacer's current cadence: the configured
// WavePeriod until a wave has measured, then the measured EWMA clamped into
// [MinPeriod, 8×WavePeriod].
func (s *Server) PacePeriod() time.Duration { return s.pace.period() }

// reqCosts returns the request's declared cost sums, substituting the
// pacing default for undeclared accurate costs. Requests without a Degraded
// handler contribute zero degraded cost: shedding them to approximate
// execution skips them entirely.
//
//siglint:noalloc
func reqCosts(req *Request) costSums {
	c := costSums{acc: req.CostAccurate}
	if c.acc <= 0 {
		c.acc = DefaultRequestCost
	}
	if req.Degraded != nil {
		c.deg = req.CostDegraded
	}
	return c
}

// Submit queues a request for the next admission: the follow-on of the wave
// in flight, or the next wave's first. It returns ErrQueueFull when the
// admission queue is at its limit (the request is shed) and ErrClosed on a
// shut-down server; otherwise the Ticket tracks the request to completion.
//
//siglint:noalloc
func (s *Server) Submit(req Request) (*Ticket, error) {
	if req.Handler == nil {
		return nil, fmt.Errorf("serve: Submit with nil Handler") //siglint:allocok rejected-request path; the caller has a bug to fix
	}
	// Written so NaN fails it too. The runtime charges a body's cost as
	// int64 nanoseconds (sig.WithCost): a cost at or past 2^63 wraps that
	// account, and an infinite one would poison the lanes' cost sums, and
	// with them every later wave's load signal.
	if !(req.CostAccurate >= 0 && req.CostAccurate < 1<<63 &&
		req.CostDegraded >= 0 && req.CostDegraded < 1<<63) {
		return nil, fmt.Errorf("serve: request cost (%v/%v) outside [0, 2^63) ns", req.CostAccurate, req.CostDegraded) //siglint:allocok rejected-request path; the caller has a bug to fix
	}
	if !(req.Significance >= 0 && req.Significance <= 1) {
		return nil, fmt.Errorf("serve: request significance %v outside [0, 1]", req.Significance) //siglint:allocok rejected-request path; the caller has a bug to fix
	}
	if req.CostAccurate == 0 && req.CostDegraded > 0 {
		return nil, fmt.Errorf("serve: CostDegraded declared without CostAccurate") //siglint:allocok rejected-request path; the caller has a bug to fix
	}
	if req.CostAccurate > 0 && req.Degraded != nil && req.CostDegraded == 0 {
		return nil, fmt.Errorf("serve: request declares CostAccurate but not the Degraded handler's cost") //siglint:allocok rejected-request path; the caller has a bug to fix
	}
	now := s.clock.Now() //siglint:allocok clock seam: one virtual read behind the WaveClock interface
	if !req.Deadline.IsZero() && now.After(req.Deadline) {
		// Already expired: reject before a ticket or queue slot is touched.
		// The request is accounted (submitted, rejected, timed out) but
		// models zero joules — no handler ever runs.
		s.tot.submitted.Add(1)
		s.tot.rejected.Add(1)
		s.tot.preExpired.Add(1)
		return nil, ErrDeadlineExpired
	}
	s.tot.submitted.Add(1)
	ln := laneBulk
	if s.cfg.PriorityAt > 0 && req.Significance >= s.cfg.PriorityAt {
		ln = lanePriority
	}
	tk := getTicket(now.UnixNano())
	tk.req, tk.lane = req, ln
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.tot.rejected.Add(1)
		discardTicket(tk)
		return nil, ErrClosed
	}
	l := &s.lanes[ln]
	if len(l.q) >= l.limit {
		// Before rejecting, sweep queued requests whose deadline has
		// already passed: an expired request deeper in the backlog must
		// not hold a slot against live traffic.
		s.sweepExpiredLocked(now, false)
	}
	if len(l.q) >= l.limit {
		// Price the backoff hint on the backlog the lock still pins: the
		// modeled waves to drain the work ahead of this request's lane at the
		// current ratio and wave budget. The priority lane drains first, so
		// bulk rejections price both lanes; priority rejections price the
		// priority backlog alone.
		backlog := s.backlogLocked(ln)
		s.mu.Unlock()
		s.tot.rejected.Add(1)
		discardTicket(tk)
		waves := math.Max(1, math.Ceil(backlog.at(s.Ratio())/s.pace.price()))
		// Price the hint in measured-period units (the pacer's effective
		// period: the wall-time EWMA, floored at the cadence — the configured
		// WavePeriod before the first measurement). Pricing waves at the
		// configured period under an overrunning wave sent clients back into
		// a still-full queue. A declared backlog can price past the longest
		// Duration; the hint then saturates there rather than wrap negative.
		retry := time.Duration(math.MaxInt64)
		if eff := s.pace.effective(); waves*float64(eff) < math.MaxInt64 {
			retry = time.Duration(waves) * eff
		}
		return nil, &OverloadError{RetryAfter: retry} //siglint:allocok shed-request path: the structured retry hint costs one error object
	}
	tk.enqWave.Store(s.wave.Load())
	c := reqCosts(&req)
	l.cost.add(c)
	s.arrCost.add(c)
	if !req.Deadline.IsZero() {
		s.deadlined++
	}
	// Under s.mu, so the admit that pops this request spends the token.
	s.pace.arrival(now, s.depthLocked() == 0 && s.Ratio() >= 1)
	l.q = append(l.q, tk) //siglint:allocok amortized growth of the retained lane backlog
	s.mu.Unlock()
	return tk, nil
}

// sweepExpiredLocked removes every queued request whose deadline has passed
// from every lane, however deep it sits — queue slot and cost share freed,
// the lane compacted in place — so an expired request can never hold a slot
// against live traffic or keep its cost in the backlog sums. admit runs it
// at each of a wave's admissions and defers the casualties to waveExpired
// (runWave resolves them at the wave's epoch, after its last taskwait); the
// queue-full Submit path resolves them on the spot. Caller holds s.mu.
//
//siglint:noalloc
func (s *Server) sweepExpiredLocked(now time.Time, deferred bool) {
	if s.deadlined == 0 {
		return
	}
	wave, nowNs := s.wave.Load(), now.UnixNano()
	for i := laneCount - 1; i >= 0; i-- {
		l := &s.lanes[i]
		kept := l.q[:0]
		for _, tk := range l.q {
			if tk.req.Deadline.IsZero() || !now.After(tk.req.Deadline) {
				kept = append(kept, tk) //siglint:allocok re-slices the lane in place; kept shares its backing array
				continue
			}
			l.cost.sub(reqCosts(&tk.req))
			s.deadlined--
			if deferred {
				s.waveExpired = append(s.waveExpired, tk) //siglint:allocok amortized growth of the reused per-wave expired buffer
			} else {
				s.resolve(tk, OutcomeTimedOut, wave, nowNs)
			}
		}
		clear(l.q[len(kept):])
		l.q = kept
	}
}

// resolve is every request's one way out of the server, whatever the
// outcome and whoever calls it — a body's closure at its end, the wave end
// for the policy's drops, the expiry sweeps for deadline casualties: the
// request is counted first (outcome, then lane), then published.
//
//siglint:noalloc
func (s *Server) resolve(tk *Ticket, o Outcome, wave, nowNs int64) {
	tk.outcome.Store(int32(o))
	s.tot.outcomes[o].Add(1)
	if tk.lane == lanePriority {
		s.tot.priority.Add(1)
	}
	s.finish(tk, wave, nowNs)
}

// finish publishes one resolved request — completion edge, lane latency —
// and drops the server's ticket reference. The request leaves the ticket
// before the completion edge: a caller woken by Done, or one that never
// calls Release, pins no handler closure. Totals count the request before
// this runs, so a caller woken by Done already sees itself there.
//
//siglint:noalloc
func (s *Server) finish(tk *Ticket, wave, nowNs int64) {
	ln := tk.lane
	tk.req, tk.lane, tk.srv = Request{}, 0, nil
	tk.complete(wave, nowNs)
	s.lanes[ln].lat.record(wave - tk.enqWave.Load() + 1)
	tk.release()
}

// measure is the admission controller's load signal, evaluated at the wave
// boundary (after RunWave's last taskwait): the modeled cost of fresh
// arrivals plus a DefaultDrainGain share of the backlog, both priced at the
// wave's ratio, over the per-wave capacity. The backlog is priced as if the
// follow-on admission had popped nothing — the queue plus followOnCost — so
// every request that arrives while a wave runs counts once as backlog,
// whether the follow-on serves it or the next wave does. It is monotone
// increasing in the ratio, which is what lets the secant law of
// adapt.TargetLoad converge in a handful of waves.
func (s *Server) measure(ws sig.WaveStats) float64 {
	carry := s.pace.carry(s.clock) // before s.mu: the clock is caller-supplied code
	r := ws.RequestedRatio
	s.mu.Lock()
	// Every lane drains from the same capacity.
	backlog := s.backlogLocked(laneBulk)
	backlog.add(s.followOnCost)
	load := (s.arrCost.at(r) + DefaultDrainGain*backlog.at(r)) / s.pace.price()
	s.arrCost = costSums{} // next wave accounts fresh arrivals only
	if carry > 0 {
		// An early wave speaks for a share of the period; the rest keeps
		// the previous reading (see pacer.carry).
		load += carry * s.lastLoad
	}
	s.lastLoad = load
	s.mu.Unlock()
	return load
}

// admit pops the lanes in drain order (priority, then the bulk FIFO) onto
// the wave's batch while the expected modeled cost at the wave's ratio fits
// the wave budget, and spends the wake token an arrival among them posted.
// A wave admits twice. Its first admission, as it fires, starts the batch
// afresh and admits at least one request when anything is queued, so a
// single oversized request cannot wedge the queue. Its follow-on, once the
// first taskwait has returned, appends what queued meanwhile while the
// budget the first left covers it, with no such exemption, and records what
// it popped for measure (followOnCost). Before popping, every lane is swept
// for requests whose Deadline passed by now — they move to the waveExpired
// buffer, consuming no budget. The returned batch is the server's reused
// wavePending buffer (valid until the next wave's first admit); lane
// remainders compact to the front of their backing arrays, so steady-state
// waves neither grow nor churn them. now is a clock reading runWave took
// through the WaveClock seam — admit performs no clock reads of its own.
//
//siglint:noalloc
func (s *Server) admit(now time.Time, ratio float64, followOn bool) []*Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !followOn {
		s.wavePending, s.waveCost = s.wavePending[:0], 0
	}
	s.sweepExpiredLocked(now, true)
	var popped costSums
	budget := s.pace.price()
	for i := laneCount - 1; i >= 0; i-- {
		popped.add(s.popLaneLocked(&s.lanes[i], ratio, budget, !followOn))
	}
	if followOn {
		s.followOnCost = popped
	}
	s.pace.spend()
	return s.wavePending
}

// popLaneLocked pops one lane FIFO onto wavePending while waveCost, the
// wave's running expected cost, fits budget — exempt admits the wave's first
// request whatever its cost — and returns the declared costs it popped.
// Caller holds s.mu.
//
//siglint:noalloc
func (s *Server) popLaneLocked(l *lane, ratio, budget float64, exempt bool) (popped costSums) {
	n := 0
	for n < len(l.q) {
		tk := l.q[n]
		c := reqCosts(&tk.req)
		if !(exempt && len(s.wavePending) == 0) && s.waveCost+c.at(ratio) > budget {
			break
		}
		s.wavePending = append(s.wavePending, tk) //siglint:allocok amortized growth of the reused wavePending batch buffer
		s.waveCost += c.at(ratio)
		popped.add(c)
		l.cost.sub(c)
		if !tk.req.Deadline.IsZero() {
			s.deadlined--
		}
		n++
	}
	if n > 0 {
		rem := copy(l.q, l.q[n:])
		clear(l.q[rem:])
		l.q = l.q[:rem]
	}
	if len(l.q) == 0 && cap(l.q) > max(64, l.limit/8) {
		l.q = nil // release a burst-grown backing array once it drains
	}
	return popped
}

// RunWave executes one serving wave: admit a budget's worth of queued
// requests, run them as one significance-annotated batch and taskwait; then
// admit once more what queued meanwhile, while the budget the first
// admission left covers it, run that too and taskwait again; and let the
// admission controller retune the ratio on the two taskwaits' merged
// telemetry. A request that queues after the second admission waits for the
// next wave, so a wave is at most two taskwaits. Each request that runs a
// body resolves the moment that body returns, so by the time RunWave
// returns its callers may have been woken, read their outcome and Released
// the ticket; the requests the policy dropped and the deadline casualties
// resolve at the wave's end, after the wave is counted in Totals. It is safe
// to call concurrently with Submit, with itself, and with Close (concurrent
// waves serialize; after Close's final drain it is a no-op returning an
// empty report). A wave with nothing to admit still advances the wave epoch
// (tickets measure latency in waves). RunWave is the pump's cadence-fired
// step, fired explicitly, whenever it is called: Close's drain, the layer
// ladder of go run ./benchmark and unit tests fire waves this way. The
// pacer's begin and end bracket it, so the next wave is due one cadence
// after this one's start, on the cadence its wall time moved.
func (s *Server) RunWave() WaveReport { return s.runWave(false) }

// runWave is the one wave body: RunWave's, and the pump's step, which alone
// may be fired by an arrival's wake token rather than by the cadence timer
// (token) — and so, if it starts before it is due, be early.
func (s *Server) runWave(token bool) WaveReport {
	s.waveMu.Lock()
	defer s.waveMu.Unlock()
	if s.stopped {
		r := s.Ratio()
		return WaveReport{
			Stats:   sig.WaveStats{Wave: int(s.wave.Load()), RequestedRatio: r, ProvidedRatio: r},
			Control: adapt.Sample{NextRatio: r},
		}
	}
	start := s.clock.Now()
	s.pace.begin(start, token)
	ratio := s.Ratio()
	var rep WaveReport
	batch := s.admit(start, ratio, false)
	rep.Stats = s.runBatch(batch, 0, &rep)
	// The follow-on admission: what queued while the first batch ran fills
	// the budget it left. A follow-on that pops nothing runs no taskwait.
	n := len(batch)
	if batch = s.admit(s.clock.Now(), ratio, true); len(batch) > n {
		rep.Stats.Merge(s.runBatch(batch, n, &rep))
	}
	// The wave's index is the server's: a follow-on's taskwait is one more
	// of the runtime's.
	rep.Stats.Wave = int(s.wave.Load())
	rep.Admitted = len(batch)
	rep.Control = s.ctl.Observe(s.grp, rep.Stats) // the admission controller retunes the ratio for the next wave
	end := s.clock.Now()
	// The wave's measured wall time — admission through the last taskwait —
	// is the sample behind MeasuredPeriod.
	rep.WallTime = end.Sub(start)
	rep.Overrun = s.pace.end(end, rep.WallTime)
	// The wave counts itself before it resolves anything, so a request
	// resolved at the wave's end finds its wave in Totals too.
	wave := s.wave.Add(1) - 1
	nowNs := end.UnixNano()
	// The deadline casualties both admissions skimmed resolve at this
	// wave's epoch.
	rep.TimedOut = len(s.waveExpired)
	for i, tk := range s.waveExpired {
		s.resolve(tk, OutcomeTimedOut, wave, nowNs)
		s.waveExpired[i] = nil
	}
	s.waveExpired = s.waveExpired[:0]
	// Every body of the wave resolved its own request as it returned; the
	// flags say which, and the rest are the policy's drops.
	s.endWave(batch, wave, nowNs)
	rep.Depth = s.Depth()
	rep.Budget = s.pace.price()
	return rep
}

// runBatch stages batch[from:], one admission's requests, in admission
// order, one spec per request; every serveSlabSize specs submit as they
// fill, the remainder here (see hotpath.go). It then taskwaits and returns
// the runtime's telemetry of that taskwait. From the first submit on, a body
// may resolve its ticket, so nothing reads a ticket of the batch before its
// flag.
func (s *Server) runBatch(batch []*Ticket, from int, rep *WaveReport) sig.WaveStats {
	for i := from; i < len(batch); i++ {
		if batch[i].lane == lanePriority {
			rep.PriorityAdmitted++
		}
		s.stage(batch[i], i)
	}
	s.flush()
	return s.rt.WaitPhase(s.grp)
}

// Start launches the pump (pacer.run): a wave whenever one is due — on the
// first arrival that finds it due, or on the cadence timer, the fallback
// when none does — or, while nothing is being shed, the moment a request
// arrives at an idle server; the cadence is the measured period, clamped.
// A wave that overruns its cadence is followed immediately by the next one
// and counted in Totals.Overruns — where the old fixed Ticker silently
// coalesced the late ticks, making the wave count diverge from
// elapsed/period with no signal.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.pumpStop != nil {
		return
	}
	s.pumpStop = make(chan struct{})
	s.pumpDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		s.pace.run(s.clock, s.pace.timerWait(s.clock, stop), func(token bool) { s.runWave(token) })
	}(s.pumpStop, s.pumpDone)
}

// Close stops admitting, drains the queue through final waves (every
// accepted ticket completes), and closes the runtime. It is idempotent
// and safe to call while an explicit RunWave is in flight: the in-flight
// wave finishes first (its tickets resolve normally), the drain waves run
// after it, and only then is the runtime closed — a RunWave arriving
// later is a no-op. The runtime's energy report stays valid afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// A concurrent Close already owns the shutdown: wait for it, so
		// every returned Close means the same thing — tickets resolved,
		// runtime closed, energy final.
		<-s.closeDone
		return s.closeErr
	}
	s.closed = true
	stop, done := s.pumpStop, s.pumpDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	// Each RunWave below serializes behind any in-flight wave; once the
	// queue is empty (no new Submit can refill it past the closed flag),
	// the runtime can be closed under the same lock, so no wave can ever
	// find it half-closed. Every wave resolved its whole batch at its end,
	// so no request is left in one.
	for s.Depth() > 0 {
		s.RunWave()
	}
	s.waveMu.Lock()
	s.stopped = true
	err := s.rt.Close()
	s.waveMu.Unlock()
	s.closeErr = err
	close(s.closeDone)
	return err
}
