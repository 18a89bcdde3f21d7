// Package shard scales the significance-aware runtime past one scheduler
// domain: a Router owns N independent sig.Runtime shards (one per NUMA-ish
// resource slice) behind the familiar single-runtime surface — Submit /
// SubmitBatch, named groups, Wait / WaitPhase, Stats / Energy, Close — and
// stripes tasks across the routable shards round-robin, in submission order.
//
// A Group created on the Router is one *logical* group backed by one
// physical sig.Group per shard. The ratio knob is hierarchical, as a global
// admission controller wants it: SetRatio commands a single global ratio,
// and the Router layers a small per-shard trim controller on top — a shard
// whose provided ratio lagged the command in the last wave is boosted (never
// shed below the command), so the merged provided ratio tracks the global
// knob even when placement skews significance across shards. A one-slot
// Router has no placement to skew and runs no trim: it is a sig.Runtime wave
// for wave, which is what lets sig/serve use it as its only engine. WaitPhase
// drains every shard and returns one merged WaveStats. The arithmetic of every
// merged account is sig's own (WaveStats.Merge, GroupStats.Merge,
// Report.Merge): modeled joules are priced from the exact integer sum of the
// shards' busy nanoseconds — not by adding per-shard float joules — so the
// merged energy account is bit-identical to a single runtime executing the
// same bodies, and replays are bit-identical at any shard count.
//
// The fleet is elastic. A Router is born with Config.Shards shards inside
// Config.MaxShards fixed slots; DrainShard retires a shard at runtime
// (marks it unroutable, waits out in-flight submissions, closes its runtime)
// and AddShard rejoins a fresh runtime into a free slot. A rejoin preserves
// the merged-energy bit-identity contract: the outgoing incarnation's frozen
// busy nanoseconds move into an integer retirement account, the joining
// runtime starts with a zero busy clock, and merged joules stay one
// multiplication over an exact integer sum. A shard's whole lifecycle is one
// word (live → draining → drained) that only fleet surgery moves; an
// Autoscaler (autoscale.go) grows and shrinks the fleet between bounds with
// hysteresis and cooldown. The chaos suite (chaos_test.go and sig/chaos)
// holds all of it to "nothing lost, nothing double-counted".
//
//siglint:deterministic
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/sig"
)

// Typed sentinel errors. Fleet-surgery methods wrap them with context via
// fmt.Errorf("...: %w", ...), so callers branch with errors.Is.
var (
	// ErrRouterClosed reports fleet surgery attempted after Close.
	ErrRouterClosed = errors.New("shard: router closed")
	// ErrLastShard reports a drain that would leave the fleet with no live
	// shard.
	ErrLastShard = errors.New("shard: last routable shard")
	// ErrFleetFull reports AddShard with every slot occupied and live.
	ErrFleetFull = errors.New("shard: fleet at capacity")
	// ErrShardDraining reports AddShard while the only free slots still
	// have a DrainShard in flight (their reports are not frozen yet).
	ErrShardDraining = errors.New("shard: shard still draining")
)

// Fixed tuning: constants, not Config fields — nothing ever needed another
// value.
const (
	// DefaultTrimGain is the per-shard trim controller's integrator gain
	// on last wave's provided-ratio lag.
	DefaultTrimGain = 0.5
	// DefaultTrimMax bounds the per-shard boost above the global ratio.
	DefaultTrimMax = 0.2
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the number of sig.Runtime shards started at New (0 means 1).
	Shards int
	// MaxShards is the fleet's slot capacity: AddShard can grow the fleet
	// up to it, and all per-shard state is sized to it once at New so the
	// submit hot path stays lock-free. 0 means Shards (no headroom).
	MaxShards int
	// Runtime configures every shard identically: Workers is the
	// *per-shard* worker pool (0 = GOMAXPROCS per shard). A shard sees only
	// its cut of a wave; the merged wave is WaitPhase's return value, which
	// the caller hands to a global admission controller
	// (adapt.Controller.Observe(g, r.WaitPhase(g))) that may retune the group
	// via Group.SetRatio before the next wave.
	Runtime sig.Config
}

// The lifecycle word (shardState.pos) holds one of three positions, ordered
// so every question the router asks is one comparison: routable is == live,
// a free slot is == drained. draining is a DrainShard in flight — turned away
// from routing, runtime still closing, energy report not frozen yet, so
// AddShard must not reuse the slot (ErrShardDraining) — and drained is the
// closed runtime (or a headroom slot never filled). Every store of the word
// happens under r.mu (fleet surgery), except the drainer's own
// draining → drained. TestLifecycleTable holds every (position, operation)
// pair to a literal table.
const (
	live int32 = iota
	draining
	drained
)

// shardState is the Router's per-shard routing state: one cache line, so the
// hot submit path never false-shares between shards
// (TestShardStateIsOneCacheLine).
type shardState struct {
	// inflight counts router submissions that picked this shard and may
	// not have reached its runtime yet; DrainShard turns the shard away first
	// and then waits for inflight to drain.
	inflight atomic.Int64
	// pos is the shard's lifecycle position: the one word routing and fleet
	// surgery both read.
	pos atomic.Int32
	_   [52]byte
}

// partRef pairs one shard's runtime with this group's physical group on it.
// The pair is published atomically so a submitter or merger always sees a
// matching (runtime, group) — never a group from one fleet incarnation with
// the runtime of the next.
type partRef struct {
	rt *sig.Runtime
	p  *sig.Group
}

// Router multiplexes the single-runtime surface over N shards. Create one
// with New, create logical groups with Group, submit with Submit or
// SubmitBatch, synchronize with Wait or WaitPhase, and release every shard
// with Close.
type Router struct {
	cfg    Config
	shards []atomic.Pointer[sig.Runtime] // slot-indexed; nil = empty slot
	state  []shardState

	// mu guards groups/order/closed and serializes fleet surgery
	// (AddShard/DrainShard) with the cold read paths (Energy/Stats); never
	// on the submit path.
	mu     sync.Mutex
	groups map[string]*Group
	order  []*Group
	closed bool
	// retired is the account of shards that left the fleet and whose slot was
	// reused — exact busy nanoseconds (sig.Report.Merge), so merged joules
	// stay one multiplication over an integer sum.
	retired sig.Report

	def atomic.Pointer[Group] // cached default group, off r.mu on submit
	rr  atomic.Uint64         // round-robin cursor

	scatter sync.Pool // of *scatterBuf, SubmitBatch's per-shard sub-batches
}

// scatterBuf is the scratch one multi-shard SubmitBatch scatters into: per
// slot a sub-batch and — resolved at most once a batch, 0 meaning not yet —
// one more than the routable slot its specs go to. Pooled, so a steady stream
// of waves reuses the grown buckets instead of rebuilding them.
type scatterBuf struct {
	buckets [][]sig.TaskSpec
	live    []int
}

// getScatter returns an empty scatter scratch.
//
//siglint:poolget
//siglint:noalloc
func (r *Router) getScatter() *scatterBuf {
	return r.scatter.Get().(*scatterBuf)
}

// putScatter recycles a scatter scratch after dropping the task bodies it
// holds, so a pooled bucket never pins a finished wave's closures.
//
//siglint:poolput
//siglint:noalloc
func (r *Router) putScatter(sc *scatterBuf) {
	for b := range sc.buckets {
		clear(sc.buckets[b])
		sc.buckets[b] = sc.buckets[b][:0]
	}
	clear(sc.live)
	r.scatter.Put(sc)
}

// New builds a Router and starts its shards.
func New(cfg Config) (*Router, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.MaxShards == 0 {
		cfg.MaxShards = cfg.Shards
	}
	if cfg.MaxShards < cfg.Shards {
		return nil, fmt.Errorf("shard: MaxShards %d below Shards %d", cfg.MaxShards, cfg.Shards)
	}
	r := &Router{
		cfg:    cfg,
		shards: make([]atomic.Pointer[sig.Runtime], cfg.MaxShards),
		state:  make([]shardState, cfg.MaxShards),
		groups: make(map[string]*Group),
	}
	slots := cfg.MaxShards
	r.scatter.New = func() any {
		return &scatterBuf{buckets: make([][]sig.TaskSpec, slots), live: make([]int, slots)}
	}
	for i := 0; i < cfg.Shards; i++ {
		rt, err := sig.New(cfg.Runtime)
		if err != nil {
			for j := 0; j < i; j++ {
				r.shards[j].Load().Close()
			}
			return nil, err
		}
		r.shards[i].Store(rt)
	}
	// Headroom slots are born drained (empty) until an AddShard fills them.
	for i := cfg.Shards; i < cfg.MaxShards; i++ {
		r.state[i].pos.Store(drained)
	}
	return r, nil
}

// Shards returns the fleet's slot capacity (Config.MaxShards): the valid
// shard-index range for Part, whatever subset is live.
func (r *Router) Shards() int { return len(r.shards) }

// Group is one logical task group spanning every shard. It satisfies
// adapt.Target, so a single controller can own the merged ratio.
type Group struct {
	r     *Router
	name  string
	ratio atomic.Uint64             // math.Float64bits of the global commanded ratio
	parts []atomic.Pointer[partRef] // slot-indexed; nil = empty slot
	// trim is each shard's boost above the global ratio (float bits),
	// updated by the trim controllers at wave boundaries and read by
	// applyRatio — atomics so SetRatio (a controller on another goroutine)
	// never races the boundary update.
	trim []atomic.Uint64

	// retiredMu guards retired and serializes part retirement (AddShard)
	// with the cumulative readers, so counters move from a part into
	// retired atomically — no snapshot ever misses or double-counts a
	// retired incarnation.
	retiredMu sync.Mutex
	retired   sig.GroupStats

	// waveMu serializes Wait/WaitPhase merging on this group, like the
	// per-group phase lock of a single runtime.
	waveMu sync.Mutex
	wave   int
	// lags is WaitPhase's per-slot provided-ratio lag scratch, guarded by
	// waveMu.
	lags []float64
}

// Ratio returns the global commanded accurate ratio.
func (g *Group) Ratio() float64 { return math.Float64frombits(g.ratio.Load()) }

// SetRatio retargets the global ratio and fans it out to every shard,
// boosted by the shard's current trim. It is the knob a global admission
// controller drives (adapt.Target).
func (g *Group) SetRatio(ratio float64) {
	g.ratio.Store(math.Float64bits(clamp01(ratio)))
	g.applyRatio()
}

// applyRatio pushes ratio+trim to every physical group.
func (g *Group) applyRatio() {
	ratio := g.Ratio()
	for i := range g.parts {
		if ref := g.parts[i].Load(); ref != nil {
			ref.p.SetRatio(math.Min(1, ratio+g.trimOf(i)))
		}
	}
}

// trimOf returns shard i's current boost above the global ratio.
func (g *Group) trimOf(i int) float64 { return math.Float64frombits(g.trim[i].Load()) }

// Part returns the physical group on shard i (nil for an empty slot), for
// tests and per-shard introspection.
func (g *Group) Part(i int) *sig.Group {
	if ref := g.parts[i].Load(); ref != nil {
		return ref.p
	}
	return nil
}

// retire folds the outgoing incarnation's counters into the group's
// retirement account and empties the slot. Called under r.mu (AddShard)
// with the old runtime closed, so the snapshot is frozen and final.
func (g *Group) retire(i int) {
	g.retiredMu.Lock()
	defer g.retiredMu.Unlock()
	ref := g.parts[i].Load()
	if ref == nil {
		return
	}
	g.retired.Merge(ref.p.Stats())
	g.parts[i].Store(nil)
}

// Group returns the logical group with the given name, creating it (on
// every shard) on first use, and sets its global ratio. Like
// sig.Runtime.Group it is an idempotent get-or-create.
func (r *Router) Group(name string, ratio float64) *Group {
	g, existed := r.getOrCreateGroup(name, ratio)
	if existed {
		g.SetRatio(ratio)
	}
	return g
}

func (r *Router) getOrCreateGroup(name string, ratio float64) (*Group, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.groups[name]; ok {
		return g, true
	}
	n := len(r.shards)
	g := &Group{
		r:     r,
		name:  name,
		parts: make([]atomic.Pointer[partRef], n),
		trim:  make([]atomic.Uint64, n),
		lags:  make([]float64, n),
	}
	g.ratio.Store(math.Float64bits(clamp01(ratio)))
	g.retired.Name = name
	for i := range r.shards {
		if rt := r.shards[i].Load(); rt != nil {
			g.parts[i].Store(&partRef{rt: rt, p: rt.Group(name, ratio)})
		}
	}
	r.groups[name] = g
	r.order = append(r.order, g)
	if name == "" {
		r.def.Store(g)
	}
	return g, false
}

// defaultGroup resolves nil-group submissions and taskwaits. Like
// sig.Runtime's, it is created with ratio 1.0 on first use but never
// overrides a ratio the caller set via r.Group("", r), and repeat lookups
// stay off r.mu.
func (r *Router) defaultGroup() *Group {
	if g := r.def.Load(); g != nil {
		return g
	}
	g, _ := r.getOrCreateGroup("", 1.0)
	return g
}

func clamp01(x float64) float64 {
	switch {
	case x < 0 || math.IsNaN(x):
		return 0
	case x > 1:
		return 1
	}
	return x
}

// routable reports whether slot j accepts new work: one load of the
// lifecycle word.
func (r *Router) routable(j int) bool { return r.state[j].pos.Load() == live }

// liveFrom returns the first routable shard at or after i (wrapping); i
// itself when every shard is unroutable (route will reject it).
func (r *Router) liveFrom(i int) int {
	n := len(r.shards)
	for probe := 0; probe < n; probe++ {
		j := (i + probe) % n
		if r.routable(j) {
			return j
		}
	}
	return i % n
}

// route acquires a submit slot on a routable shard at or after the proposed
// index: it publishes the in-flight count first and re-checks, so a
// concurrent DrainShard either sees the count and waits for the submission
// to land, or already turned the shard away before it was picked.
func (r *Router) route(i int) (int, bool) {
	n := len(r.shards)
	for probe := 0; probe < n; probe++ {
		j := (i + probe) % n
		s := &r.state[j]
		s.inflight.Add(1)
		if r.routable(j) {
			return j, true
		}
		s.inflight.Add(-1)
	}
	return 0, false
}

// Submit schedules one task on the next shard in round-robin order: a
// SubmitBatch of one. Like sig.Runtime.Submit it panics on a nil body or a
// closed router.
func (r *Router) Submit(g *Group, spec sig.TaskSpec) {
	one := [1]sig.TaskSpec{spec}
	r.SubmitBatch(g, one[:])
}

// SubmitBatch scatters the batch across shards round-robin and submits one
// sub-batch per shard, preserving relative order within each shard.
// Semantically a loop of Submit calls.
func (r *Router) SubmitBatch(g *Group, specs []sig.TaskSpec) {
	if len(specs) == 0 {
		return
	}
	if g == nil {
		g = r.defaultGroup()
	}
	// Validate every body before routing anything, like the runtime's own
	// SubmitBatch: a nil-body panic must not fire with an in-flight slot
	// held or a partial batch dispatched.
	for k := range specs {
		if specs[k].Fn == nil {
			panic("sig: SubmitBatch with nil task body")
		}
	}
	if len(r.shards) == 1 {
		// One slot: nothing to place, so the whole batch is one bucket.
		r.submitBucket(g, 0, specs)
		return
	}
	sc := r.getScatter()
	defer r.putScatter(sc) // also on a panic out of a shard's SubmitBatch
	// One range of the round-robin sequence for the whole batch: spec k gets
	// the cursor value a loop of Submit calls would have drawn, and its home
	// slot is that value modulo the slot count.
	n := uint64(len(r.shards))
	cursor := r.rr.Add(uint64(len(specs))) - uint64(len(specs))
	for k := range specs {
		slot := int((cursor + uint64(k)) % n)
		if sc.live[slot] == 0 {
			sc.live[slot] = r.liveFrom(slot) + 1
		}
		b := sc.live[slot] - 1
		sc.buckets[b] = append(sc.buckets[b], specs[k])
	}
	for b, sub := range sc.buckets {
		if len(sub) > 0 {
			r.submitBucket(g, b, sub)
		}
	}
}

// submitBucket is the one submit tail: it routes a placed sub-batch and
// submits it, releasing the in-flight slot even if the shard's SubmitBatch
// panics (a leaked slot would wedge a later DrainShard forever).
func (r *Router) submitBucket(g *Group, b int, sub []sig.TaskSpec) {
	i, ok := r.route(b)
	if !ok {
		panic("shard: Submit with every shard drained")
	}
	defer r.state[i].inflight.Add(-1)
	ref := g.parts[i].Load()
	ref.rt.SubmitBatch(ref.p, sub)
}

// WaitPhase flushes the logical group on every shard, then waits on each in
// slot order, and returns the merged wave telemetry. Flushing all before
// waiting on any is what lets the shards run their waves side by side: under
// a buffering policy nothing on a shard runs before its own flush, so
// flushing shard i+1 only after shard i drained would run the fleet one
// shard at a time. The shards' cuts are folded in slot order by
// sig.WaveStats.Merge — counts and busy nanoseconds summed as integers, the
// joules priced from that sum in one multiplication — so the energy account
// is bit-identical to a single runtime running the same bodies, and
// additivity survives any shard count (invariant-tested). After the merge the
// per-shard trim controllers absorb each shard's provided-ratio lag and the
// next wave's ratios are applied; a controller that observes the returned
// wave (serve.runWave does, on the next line) retunes the global ratio on
// top of that, outside waveMu. A shard that stalls holds the merged wave
// until its cut completes.
func (r *Router) WaitPhase(g *Group) sig.WaveStats {
	if g == nil {
		g = r.defaultGroup()
	}
	g.waveMu.Lock()
	for i := range g.parts {
		if ref := g.parts[i].Load(); ref != nil {
			ref.rt.Flush(ref.p)
		}
	}
	var cuts sig.WaveStats // the shards' integer account, folded in slot order
	lags := g.lags
	clear(lags)
	for i := range g.parts {
		ref := g.parts[i].Load()
		if ref == nil {
			continue
		}
		want := ref.p.Ratio() // ratio+trim this shard was asked for
		ws := ref.rt.WaitPhase(ref.p)
		cuts.Merge(ws)
		if ws.Decided() > 0 {
			lags[i] = want - ws.ProvidedRatio
		}
	}
	merged := sig.WaveStats{Wave: g.wave, RequestedRatio: g.Ratio()}
	merged.Merge(cuts)
	g.wave++
	// Per-shard trim update: integrate each shard's lag, clamped to
	// [0, DefaultTrimMax] — a lagging shard is boosted above the global
	// command, never shed below it, so the hierarchical knob cannot undercut
	// the ratio floor the caller asked for. Pure arithmetic on wave
	// telemetry: deterministic, replayable. Trim corrects placement skew
	// *between* shards; a one-slot router has none (SubmitBatch special-cases
	// it the same way), so there the shard runs exactly the global ratio — a
	// one-slot router is a sig.Runtime, wave for wave.
	if len(r.shards) > 1 {
		for i := range g.trim {
			t := g.trimOf(i) + DefaultTrimGain*lags[i]
			t = math.Max(0, math.Min(DefaultTrimMax, t))
			g.trim[i].Store(math.Float64bits(t))
		}
	}
	g.applyRatio()
	g.waveMu.Unlock()
	return merged
}

// Wait drains the logical group on every shard and returns the cumulative
// provided ratio of the merge, like sig.Runtime.Wait.
func (r *Router) Wait(g *Group) float64 {
	if g == nil {
		g = r.defaultGroup()
	}
	r.WaitPhase(g)
	return g.providedRatio()
}

// providedRatio is the merged cumulative accurate fraction — retired
// incarnations included — from the shards' counters alone; no decision-log
// copying on the wave path.
func (g *Group) providedRatio() float64 {
	g.retiredMu.Lock()
	defer g.retiredMu.Unlock()
	merged := g.retired
	merged.Decisions, merged.RequestedRatio = nil, g.Ratio()
	for i := range g.parts {
		if ref := g.parts[i].Load(); ref != nil {
			_, a, ap, d := ref.p.Counts()
			merged.Merge(sig.GroupStats{Accurate: a, Approximate: ap, Dropped: d})
		}
	}
	return merged.ProvidedRatio
}

// Stats returns the logical group's merged accounting: counters summed
// across shards — retired incarnations included — the requested ratio being
// the global command.
func (g *Group) Stats() sig.GroupStats {
	g.retiredMu.Lock()
	defer g.retiredMu.Unlock()
	merged := sig.GroupStats{Name: g.name, RequestedRatio: g.Ratio()}
	merged.Merge(g.retired)
	for i := range g.parts {
		if ref := g.parts[i].Load(); ref != nil {
			merged.Merge(ref.p.Stats())
		}
	}
	return merged
}

// Stats merges the per-shard accounting into one runtime-shaped snapshot:
// one GroupStats per logical group, counters summed across shards.
func (r *Router) Stats() sig.Stats {
	r.mu.Lock()
	groups := append([]*Group(nil), r.order...)
	r.mu.Unlock()
	st := sig.Stats{}
	var sum sig.GroupStats
	for _, g := range groups {
		gs := g.Stats()
		st.Groups = append(st.Groups, gs)
		gs.Decisions = nil // the totals carry no log
		sum.Merge(gs)
	}
	st.Submitted, st.Accurate, st.Approximate, st.Dropped = sum.Submitted, sum.Accurate, sum.Approximate, sum.Dropped
	return st
}

// ShardStats returns each slot's own Stats snapshot, indexed by slot (zero
// value for empty slots). Retired incarnations are not included — they live
// in the merged Group/Router views.
func (r *Router) ShardStats() []sig.Stats {
	out := make([]sig.Stats, len(r.shards))
	for i := range r.shards {
		if rt := r.shards[i].Load(); rt != nil {
			out[i] = rt.Stats()
		}
	}
	return out
}

// Energy returns the merged modeled energy report (sig.Report.Merge): busy
// time is the exact integer sum of the shards' busy nanoseconds — current
// incarnations plus the retirement account of shards whose slot was reused —
// and the joules are priced from that sum, bit-identical to a single runtime
// that executed the same bodies. Wall is the slowest shard's wall clock;
// Workers the total started, past incarnations included.
func (r *Router) Energy() sig.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.retired
	for i := range r.shards {
		if rt := r.shards[i].Load(); rt != nil {
			rep.Merge(rt.Energy())
		}
	}
	return rep
}

// ShardEnergy returns each slot's own energy report, indexed by slot (zero
// value for empty slots; retired incarnations excluded, as in ShardStats).
func (r *Router) ShardEnergy() []sig.Report {
	out := make([]sig.Report, len(r.shards))
	for i := range r.shards {
		if rt := r.shards[i].Load(); rt != nil {
			out[i] = rt.Energy()
		}
	}
	return out
}

// DrainShard removes shard i from the fleet at runtime: it marks the shard
// unroutable, waits out submissions that already picked it, then closes its
// runtime — which drains every task the shard had queued or buffered.
// Completed work stays in every merged Stats/Energy view (a closed
// sig.Runtime's reports are frozen, not gone), so draining mid-wave loses
// and double-counts nothing. Draining the last routable shard is refused
// with ErrLastShard; a drained slot can rejoin via AddShard. Idempotent per
// shard.
func (r *Router) DrainShard(i int) error {
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("shard: DrainShard(%d) out of range [0,%d)", i, len(r.shards))
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("shard: DrainShard(%d): %w", i, ErrRouterClosed)
	}
	st := &r.state[i]
	if st.pos.Load() >= draining {
		r.mu.Unlock()
		return nil
	}
	if r.Live() <= 1 {
		r.mu.Unlock()
		return fmt.Errorf("shard: cannot drain shard %d: %w", i, ErrLastShard)
	}
	// draining, not yet drained: unroutable from this store on, but AddShard
	// must not reuse the slot until its energy report is frozen.
	st.pos.Store(draining)
	r.mu.Unlock()
	// Wait out router submissions that picked this shard before the word
	// turned; afterwards nothing new can reach it (route re-checks it under
	// the in-flight count). Same yield-then-sleep discipline as
	// sig.Runtime.Close.
	for spin := 0; st.inflight.Load() != 0; spin++ {
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	err := r.shards[i].Load().Close()
	// Only the drainer writes a draining word — surgery refuses the slot — so
	// this store needs no lock.
	st.pos.Store(drained)
	return err
}

// AddShard rejoins a fresh sig.Runtime into the lowest free slot and
// returns its index. The outgoing incarnation of a reused slot (already
// drained, so its report is frozen) moves into the retirement account —
// exact integer busy nanoseconds — which keeps the merged energy
// bit-identity contract: the joining runtime starts with a zero busy clock,
// so merged joules stay one multiplication over an exact integer sum.
// The new shard starts with zero trim and takes its turn in the round-robin
// sequence from the next submission on. Returns ErrFleetFull with every slot
// routable, ErrShardDraining while the only free slots still have a drain in
// flight, ErrRouterClosed after Close.
func (r *Router) AddShard() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return -1, fmt.Errorf("shard: AddShard: %w", ErrRouterClosed)
	}
	slot, full := -1, ErrFleetFull
	for j := range r.state {
		pos := r.state[j].pos.Load()
		if pos == drained {
			slot = j
			break
		}
		if pos == draining {
			full = ErrShardDraining
		}
	}
	if slot < 0 {
		return -1, fmt.Errorf("shard: AddShard: %w", full)
	}
	rt, err := sig.New(r.cfg.Runtime)
	if err != nil {
		return -1, err
	}
	if old := r.shards[slot].Load(); old != nil {
		r.retired.Merge(old.Energy())
		for _, g := range r.order {
			g.retire(slot)
		}
	}
	st := &r.state[slot]
	for _, g := range r.order {
		g.trim[slot].Store(0)
		g.parts[slot].Store(&partRef{rt: rt, p: rt.Group(g.name, g.Ratio())})
	}
	r.shards[slot].Store(rt)
	// Publish routability last, in the one store of live: a submitter that
	// observes it is ordered after every store above (atomics are seq-cst),
	// so it can only see the fully assembled new incarnation.
	st.pos.Store(live)
	return slot, nil
}

// Live returns the number of shards accepting new work: open runtimes with
// no drain in flight.
func (r *Router) Live() int {
	n := 0
	for j := range r.state {
		if r.routable(j) {
			n++
		}
	}
	return n
}

// Close drains every logical group and closes every shard (drained shards
// are already closed; sig.Close is idempotent). Merged Energy and Stats
// stay valid — and Energy stable — afterwards, like a single runtime's.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	var errs []error
	for i := range r.shards {
		if rt := r.shards[i].Load(); rt != nil {
			errs = append(errs, rt.Close())
		}
	}
	return errors.Join(errs...)
}
