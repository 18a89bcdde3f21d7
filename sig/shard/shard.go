// Package shard scales the significance-aware runtime past one scheduler
// domain: a Router owns N independent sig.Runtime shards (one per NUMA-ish
// resource slice) behind the familiar single-runtime surface — Submit /
// SubmitBatch, named groups, Wait / WaitPhase, Stats / Energy, Close — and
// stripes tasks across the shards round-robin, in submission order.
//
// A Group created on the Router is one *logical* group backed by one
// physical sig.Group per shard. The ratio knob is hierarchical, as a global
// admission controller wants it: SetRatio commands a single global ratio,
// and the Router layers a small per-shard trim controller on top — a shard
// whose provided ratio lagged the command in the last wave is boosted (never
// shed below the command), so the merged provided ratio tracks the global
// knob even when placement skews significance across shards. A one-shard
// Router has no placement to skew and runs no trim: it is a sig.Runtime wave
// for wave. No front end serves through a Router — sig/serve drives one
// sig.Runtime directly — so its callers are its tests and the benchmark's
// runtime_tasks rungs, which measure what a fleet costs. WaitPhase
// drains every shard and returns one merged WaveStats. The arithmetic of every
// merged account is sig's own (WaveStats.Merge, GroupStats.Merge,
// Report.Merge): modeled joules are priced from the exact integer sum of the
// shards' busy nanoseconds — not by adding per-shard float joules — so the
// merged energy account is bit-identical to a single runtime executing the
// same bodies, and replays are bit-identical at any shard count.
//
// The fleet is fixed: a Router has exactly Config.Shards runtimes from New to
// Close, and nothing drains, adds or replaces one. A shard that stalls holds
// the merged wave until its cut completes (TestStalledShardHoldsWave); like
// the paper's runtime, the fleet detects no faults.
//
//siglint:deterministic
package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/sig"
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
	// Runtime configures every shard identically: Workers is the
	// *per-shard* worker pool (0 = GOMAXPROCS per shard). A shard sees only
	// its cut of a wave; the merged wave is WaitPhase's return value, which
	// the caller hands to a global admission controller
	// (adapt.Controller.Observe(g, r.WaitPhase(g))) that may retune the group
	// via Group.SetRatio before the next wave.
	Runtime sig.Config
}

// Router multiplexes the single-runtime surface over N shards. Create one
// with New, create logical groups with Group, submit with Submit or
// SubmitBatch, synchronize with Wait or WaitPhase, and release every shard
// with Close.
type Router struct {
	shards []*sig.Runtime // fixed at New

	// mu guards groups and order; never on the submit path.
	mu     sync.Mutex
	groups map[string]*Group
	order  []*Group

	def atomic.Pointer[Group] // cached default group, off r.mu on submit
	rr  atomic.Uint64         // round-robin cursor

	scatter sync.Pool // of *scatterBuf, SubmitBatch's per-shard sub-batches
}

// scatterBuf is the scratch one multi-shard SubmitBatch scatters into: one
// sub-batch per shard. Pooled, so a steady stream of waves reuses the grown
// buckets instead of rebuilding them.
type scatterBuf struct {
	buckets [][]sig.TaskSpec
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
	r.scatter.Put(sc)
}

// New builds a Router and starts its shards.
func New(cfg Config) (*Router, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", cfg.Shards)
	}
	n := max(cfg.Shards, 1)
	r := &Router{
		shards: make([]*sig.Runtime, n),
		groups: make(map[string]*Group),
	}
	r.scatter.New = func() any {
		return &scatterBuf{buckets: make([][]sig.TaskSpec, n)}
	}
	for i := range r.shards {
		rt, err := sig.New(cfg.Runtime)
		if err != nil {
			for _, started := range r.shards[:i] {
				started.Close()
			}
			return nil, err
		}
		r.shards[i] = rt
	}
	return r, nil
}

// Shards returns the fleet size (Config.Shards, or 1): the valid shard-index
// range for Part.
func (r *Router) Shards() int { return len(r.shards) }

// Group is one logical task group spanning every shard. It satisfies
// adapt.Target, so a single controller can own the merged ratio.
type Group struct {
	r     *Router
	name  string
	ratio atomic.Uint64 // math.Float64bits of the global commanded ratio
	parts []*sig.Group  // shard-indexed; set before the group is published
	// trim is each shard's boost above the global ratio (float bits),
	// updated by the trim controllers at wave boundaries and read by
	// applyRatio — atomics so SetRatio (a controller on another goroutine)
	// never races the boundary update.
	trim []atomic.Uint64

	// waveMu serializes Wait/WaitPhase merging on this group, like the
	// per-group phase lock of a single runtime.
	waveMu sync.Mutex
	wave   int
	// lags is WaitPhase's per-shard provided-ratio lag scratch, guarded by
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
	for i, p := range g.parts {
		p.SetRatio(math.Min(1, ratio+g.trimOf(i)))
	}
}

// trimOf returns shard i's current boost above the global ratio.
func (g *Group) trimOf(i int) float64 { return math.Float64frombits(g.trim[i].Load()) }

// Part returns the physical group on shard i, for tests and per-shard
// introspection.
func (g *Group) Part(i int) *sig.Group { return g.parts[i] }

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
		parts: make([]*sig.Group, n),
		trim:  make([]atomic.Uint64, n),
		lags:  make([]float64, n),
	}
	g.ratio.Store(math.Float64bits(clamp01(ratio)))
	for i, rt := range r.shards {
		g.parts[i] = rt.Group(name, ratio)
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
	// Validate every body before placing anything, like the runtime's own
	// SubmitBatch: a nil-body panic must not fire with a partial batch
	// dispatched.
	for k := range specs {
		if specs[k].Fn == nil {
			panic("sig: SubmitBatch with nil task body")
		}
	}
	if len(r.shards) == 1 {
		// One shard: nothing to place, so the whole batch is one bucket.
		r.shards[0].SubmitBatch(g.parts[0], specs)
		return
	}
	sc := r.getScatter()
	defer r.putScatter(sc) // also on a panic out of a shard's SubmitBatch
	// One range of the round-robin sequence for the whole batch: spec k gets
	// the cursor value a loop of Submit calls would have drawn, and its shard
	// is that value modulo the shard count.
	n := uint64(len(r.shards))
	cursor := r.rr.Add(uint64(len(specs))) - uint64(len(specs))
	for k := range specs {
		b := (cursor + uint64(k)) % n
		sc.buckets[b] = append(sc.buckets[b], specs[k])
	}
	for b, sub := range sc.buckets {
		if len(sub) > 0 {
			r.shards[b].SubmitBatch(g.parts[b], sub)
		}
	}
}

// WaitPhase flushes the logical group on every shard, then waits on each in
// shard order, and returns the merged wave telemetry. Flushing all before
// waiting on any is what lets the shards run their waves side by side: under
// a buffering policy nothing on a shard runs before its own flush, so
// flushing shard i+1 only after shard i drained would run the fleet one
// shard at a time. The shards' cuts are folded in shard order by
// sig.WaveStats.Merge — counts and busy nanoseconds summed as integers, the
// joules priced from that sum in one multiplication — so the energy account
// is bit-identical to a single runtime running the same bodies, and
// additivity survives any shard count (invariant-tested). After the merge the
// per-shard trim controllers absorb each shard's provided-ratio lag and the
// next wave's ratios are applied; a controller that observes the returned
// wave (adapt.Controller.Observe) retunes the global ratio on top of that,
// outside waveMu. A shard that stalls holds the merged wave
// until its cut completes.
func (r *Router) WaitPhase(g *Group) sig.WaveStats {
	if g == nil {
		g = r.defaultGroup()
	}
	g.waveMu.Lock()
	for i, rt := range r.shards {
		rt.Flush(g.parts[i])
	}
	var cuts sig.WaveStats // the shards' integer account, folded in shard order
	lags := g.lags
	clear(lags)
	for i, rt := range r.shards {
		p := g.parts[i]
		want := p.Ratio() // ratio+trim this shard was asked for
		ws := rt.WaitPhase(p)
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
	// *between* shards; a one-shard router has none (SubmitBatch
	// special-cases it the same way), so there the shard runs exactly the
	// global ratio — a one-shard router is a sig.Runtime, wave for wave.
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

// providedRatio is the merged cumulative accurate fraction from the shards'
// counters alone; no decision-log copying on the wave path.
func (g *Group) providedRatio() float64 {
	merged := sig.GroupStats{RequestedRatio: g.Ratio()}
	for _, p := range g.parts {
		_, a, ap, d := p.Counts()
		merged.Merge(sig.GroupStats{Accurate: a, Approximate: ap, Dropped: d})
	}
	return merged.ProvidedRatio
}

// Stats returns the logical group's merged accounting: counters summed
// across shards, the requested ratio being the global command.
func (g *Group) Stats() sig.GroupStats {
	merged := sig.GroupStats{Name: g.name, RequestedRatio: g.Ratio()}
	for _, p := range g.parts {
		merged.Merge(p.Stats())
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

// ShardStats returns each shard's own Stats snapshot, indexed by shard.
func (r *Router) ShardStats() []sig.Stats {
	out := make([]sig.Stats, len(r.shards))
	for i, rt := range r.shards {
		out[i] = rt.Stats()
	}
	return out
}

// Energy returns the merged modeled energy report (sig.Report.Merge): busy
// time is the exact integer sum of the shards' busy nanoseconds, and the
// joules are priced from that sum, bit-identical to a single runtime that
// executed the same bodies. Wall is the slowest shard's wall clock; Workers
// the total started.
func (r *Router) Energy() sig.Report {
	var rep sig.Report
	for _, rt := range r.shards {
		rep.Merge(rt.Energy())
	}
	return rep
}

// ShardEnergy returns each shard's own energy report, indexed by shard.
func (r *Router) ShardEnergy() []sig.Report {
	out := make([]sig.Report, len(r.shards))
	for i, rt := range r.shards {
		out[i] = rt.Energy()
	}
	return out
}

// Close drains every logical group and closes every shard (sig.Close is
// idempotent, so Close is too). Merged Energy and Stats stay valid — and
// Energy stable — afterwards, like a single runtime's.
func (r *Router) Close() error {
	var errs []error
	for _, rt := range r.shards {
		errs = append(errs, rt.Close())
	}
	return errors.Join(errs...)
}
