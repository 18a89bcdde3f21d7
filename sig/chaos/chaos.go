// Package chaos provides seeded, replayable fault injection for the
// significance-aware fleet: every scenario it produces is a deterministic
// function of its seed, so a chaos test is a regression test, not a flake.
//
// It attacks the two seams the fleet promises to survive:
//
//   - The worker seam: Injector wraps task bodies so that a deterministic
//     subset of tasks wedges on a Gate, holding a shard's workers hostage.
//   - The fleet seam: Schedule derives a replayable surgery plan — drain,
//     rejoin — that Apply executes against a shard.Router at wave
//     boundaries. Refused operations (last live shard, fleet at capacity,
//     slot still draining) are skipped: the router's guardrails are part of
//     the contract under test.
//
// The package's own test suite carries the fleet's headline proof: the
// rolling-replace chaos test drains and rejoins every shard in sequence
// under sustained overload and asserts zero lost tasks, merged energy
// bit-identical to a single-runtime golden, and bounded recovery.
//
//siglint:deterministic
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/sig"
	"repro/sig/shard"
)

// Gate is a reusable barrier task bodies can wedge on: Wait blocks until
// Open, which is idempotent and releases every past and future waiter.
type Gate struct {
	once sync.Once
	ch   chan struct{}
}

// NewGate returns a closed gate.
func NewGate() *Gate { return &Gate{ch: make(chan struct{})} }

// Wait blocks until the gate opens.
func (g *Gate) Wait() { <-g.ch }

// Open releases every waiter; safe to call more than once.
func (g *Gate) Open() { g.once.Do(func() { close(g.ch) }) }

// Config selects which tasks an Injector wedges. The fault is assigned by
// arithmetic on the wrapped-task index (offset by the seed), so a given seed
// and submission order always faults the same tasks.
type Config struct {
	// WedgeEvery wedges every n-th wrapped task on the injector's Gate
	// until Open is called (0 = never). A wedged task holds its worker —
	// the "sick shard" primitive.
	WedgeEvery int
}

// Injector plants deterministic faults into task bodies. Create one with
// NewInjector, route specs through Wrap, and count the damage afterwards.
type Injector struct {
	cfg   Config
	phase int64
	gate  *Gate

	n      atomic.Int64
	wedged atomic.Int64
}

// NewInjector builds an injector whose fault pattern is a pure function of
// seed and wrap order.
func NewInjector(seed int64, cfg Config) *Injector {
	// The seed phases the index arithmetic, so different seeds fault
	// different task positions with the same densities.
	phase := seed % 1_000_003
	if phase < 0 {
		phase = -phase
	}
	return &Injector{cfg: cfg, phase: phase, gate: NewGate()}
}

// Gate returns the gate wedged tasks block on.
func (in *Injector) Gate() *Gate { return in.gate }

// Open releases every wedged task.
func (in *Injector) Open() { in.gate.Open() }

// Wedged counts wedges actually executed (not merely planted: a wrapped body
// that never runs — dropped by policy — fires no fault).
func (in *Injector) Wedged() int64 { return in.wedged.Load() }

// Wrap assigns the next task index its fault (if any) and returns the spec
// with both bodies wrapped. Whichever body the policy picks — accurate or
// approximate — executes the same planted wedge, so placement and policy
// decisions cannot dodge the chaos.
func (in *Injector) Wrap(spec sig.TaskSpec) sig.TaskSpec {
	idx := in.phase + in.n.Add(1) - 1
	if in.cfg.WedgeEvery <= 0 || idx%int64(in.cfg.WedgeEvery) != 0 {
		return spec
	}
	spec.Fn = in.wedge(spec.Fn)
	if spec.Approx != nil {
		spec.Approx = in.wedge(spec.Approx)
	}
	return spec
}

func (in *Injector) wedge(body func()) func() {
	return func() {
		in.wedged.Add(1)
		in.gate.Wait()
		body()
	}
}

// OpKind is one fleet-surgery operation kind.
type OpKind int

const (
	// OpDrain drains a shard (shard.Router.DrainShard).
	OpDrain OpKind = iota
	// OpRejoin adds a shard into the lowest free slot (AddShard).
	OpRejoin
)

func (k OpKind) String() string {
	switch k {
	case OpDrain:
		return "drain"
	case OpRejoin:
		return "rejoin"
	}
	return "op?"
}

// Op is one scheduled fleet-surgery operation.
type Op struct {
	// Wave is the wave boundary the op fires at.
	Wave int
	Kind OpKind
	// Shard is the slot operated on (reduced modulo the router's slot
	// capacity at Apply time; unused for OpRejoin).
	Shard int
}

// Schedule derives a replayable surgery plan: for each of waves wave
// boundaries, up to opsPerWave operations over a fleet of slots slots. The
// plan is a pure function of its arguments — replaying a seed replays the
// chaos exactly.
func Schedule(seed int64, waves, slots, opsPerWave int) []Op {
	rng := rand.New(rand.NewSource(seed))
	if opsPerWave <= 0 {
		opsPerWave = 1
	}
	var plan []Op
	for w := 0; w < waves; w++ {
		for k := 0; k < opsPerWave; k++ {
			// Weight toward doing nothing so most waves are calm and ops
			// arrive in bursts the fleet must absorb, not a steady trickle.
			switch rng.Intn(8) {
			case 0:
				plan = append(plan, Op{Wave: w, Kind: OpDrain, Shard: rng.Intn(slots)})
			case 1:
				plan = append(plan, Op{Wave: w, Kind: OpRejoin})
			}
		}
	}
	return plan
}

// Apply executes the plan's operations scheduled for wave against the
// router and reports how many were accepted. Refusals (ErrLastShard,
// ErrFleetFull, ErrShardDraining, …) are skipped by design:
// the router's guardrails are part of the contract chaos tests verify —
// the fleet must refuse surgery that would lose work, and survive
// everything it accepts.
func Apply(r *shard.Router, plan []Op, wave int) int {
	applied := 0
	for _, op := range plan {
		if op.Wave != wave {
			continue
		}
		slot := 0
		if n := r.Shards(); n > 0 {
			slot = op.Shard % n
		}
		var err error
		switch op.Kind {
		case OpDrain:
			err = r.DrainShard(slot)
		case OpRejoin:
			_, err = r.AddShard()
		}
		if err == nil {
			applied++
		}
	}
	return applied
}
