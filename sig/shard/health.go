package shard

import (
	"fmt"
)

// HealthState is one shard's announced position in the fleet lifecycle:
//
//	live ──strike──▶ suspect ──strike──▶ quarantined ──strike──▶ drained
//	  ▲                 │                    │                      │
//	  └──── healthy ────┘            ReviveShard              AddShard
//	          wave                  (back to live)          (slot reborn)
//
// A strike is a missed wave cut (Config.WaveTimeout watchdog) or a failing
// Config.HealthProbe. A healthy, in-time wave clears strikes and lifts a
// suspect shard back to live; a quarantined shard stays unroutable until
// ReviveShard (its empty waves complete instantly, so they prove nothing).
// Drained is terminal for the incarnation — AddShard starts the slot's next
// one at live. TestLifecycleTable holds every (position, operation) pair to a
// literal table.
type HealthState int32

const (
	// HealthLive: routable, no recent strikes.
	HealthLive HealthState = iota
	// HealthSuspect: routable, but missed at least DefaultSuspectAfter
	// consecutive waves.
	HealthSuspect
	// HealthQuarantined: unroutable while its runtime stays open, so
	// in-flight work can still drain; ReviveShard readmits it.
	HealthQuarantined
	// HealthDrained: runtime closed (DrainShard, auto-drain, or an empty
	// headroom slot). Terminal until AddShard reuses the slot.
	HealthDrained
)

func (h HealthState) String() string {
	switch h {
	case HealthLive:
		return "live"
	case HealthSuspect:
		return "suspect"
	case HealthQuarantined:
		return "quarantined"
	case HealthDrained:
		return "drained"
	}
	return fmt.Sprintf("HealthState(%d)", int32(h))
}

// The lifecycle word (shardState.pos) holds one of five positions, ordered so
// every question the router asks is one comparison: routable is ≤ suspect,
// Live is < draining, a free slot is == drained. The first three are the
// HealthStates of the same name. draining is a DrainShard in flight — turned
// away from routing, runtime still closing, energy report not frozen yet, so
// AddShard must not reuse the slot — and drained is the closed runtime (or a
// headroom slot never filled). Health reports both as HealthDrained: a caller
// can do nothing with the difference but retry AddShard, which tells it
// (ErrShardDraining).
//
// Plain stores of the word happen under r.mu (fleet surgery), except the
// drainer's own draining → drained; the two health transitions off the lock,
// live ↔ suspect, are CASes, so they can never resurrect a shard surgery
// moved.
const (
	live        = int32(HealthLive)
	suspect     = int32(HealthSuspect)
	quarantined = int32(HealthQuarantined)
	draining    = int32(HealthDrained)
	drained     = draining + 1
)

// Consecutive-strike thresholds: DefaultSuspectAfter is fixed, the other two
// are the defaults for Config's zero fields.
const (
	// DefaultSuspectAfter turns a shard suspect on its first missed wave.
	DefaultSuspectAfter = 1
	// DefaultQuarantineAfter pulls a shard out of placement after two.
	DefaultQuarantineAfter = 2
	// DefaultDrainAfter gives up and drains the shard after four.
	DefaultDrainAfter = 4
)

// Health returns shard i's current health state.
func (r *Router) Health(i int) HealthState {
	return HealthState(min(r.state[i].pos.Load(), draining))
}

// strike records one missed/failed wave for shard i and advances the health
// state machine. Runs on the merging goroutine (WaitPhase), so transitions
// are deterministic per wave; the auto-drain itself is spawned async
// because closing a wedged shard blocks until its tasks unwedge.
func (r *Router) strike(i int) {
	st := &r.state[i]
	if st.pos.Load() >= draining {
		return
	}
	n := int(st.strikes.Add(1))
	if r.cfg.DrainAfter > 0 && n >= r.cfg.DrainAfter {
		if st.autoDrain.CompareAndSwap(false, true) {
			go func() { _ = r.DrainShard(i) }()
		}
		return
	}
	if n >= r.cfg.QuarantineAfter {
		// Refused for the last routable shard (ErrLastShard): the fleet
		// keeps accepting work on a suspect shard over accepting none.
		_ = r.QuarantineShard(i)
		return
	}
	if n >= DefaultSuspectAfter {
		st.pos.CompareAndSwap(live, suspect)
	}
}

// probe runs the health bookkeeping for a shard that completed its wave cut
// in time: consult the pluggable probe (a failure is a strike), otherwise
// clear strikes and lift suspect back to live. No-op unless health tracking
// is on — the default fleet pays nothing.
func (r *Router) probe(i int) {
	if !r.healthOn {
		return
	}
	st := &r.state[i]
	if st.pos.Load() >= draining {
		return
	}
	if hp := r.cfg.HealthProbe; hp != nil {
		if err := hp(i); err != nil {
			r.strike(i)
			return
		}
	}
	r.waveOK(i)
}

// waveOK clears shard i's strikes after a healthy wave and lifts suspect
// back to live. Quarantine is not lifted here: a quarantined shard receives
// no work, so an instantly-completing empty wave is no evidence of health —
// readmission is ReviveShard's (or the operator's) explicit call.
func (r *Router) waveOK(i int) {
	if !r.healthOn {
		return
	}
	st := &r.state[i]
	if st.pos.Load() >= draining {
		return
	}
	st.strikes.Store(0)
	st.autoDrain.Store(false)
	st.pos.CompareAndSwap(suspect, live)
}

// QuarantineShard pulls shard i out of placement without closing its
// runtime: in-flight and queued work still completes and merges, but no new
// work routes to it. Refused with ErrShardDown for a drained slot and with
// ErrLastShard when it would leave the fleet with no routable shard.
// Idempotent.
func (r *Router) QuarantineShard(i int) error {
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("shard: QuarantineShard(%d) out of range [0,%d)", i, len(r.shards))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("shard: QuarantineShard(%d): %w", i, ErrRouterClosed)
	}
	st := &r.state[i]
	switch pos := st.pos.Load(); {
	case pos >= draining:
		return fmt.Errorf("shard: QuarantineShard(%d): %w", i, ErrShardDown)
	case pos == quarantined:
		return nil
	case r.Routable() <= 1:
		return fmt.Errorf("shard: cannot quarantine shard %d: %w", i, ErrLastShard)
	}
	st.pos.Store(quarantined)
	return nil
}

// ReviveShard readmits a quarantined shard into placement and clears its
// strikes. Refused with ErrShardDown for a drained slot. Idempotent.
func (r *Router) ReviveShard(i int) error {
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("shard: ReviveShard(%d) out of range [0,%d)", i, len(r.shards))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("shard: ReviveShard(%d): %w", i, ErrRouterClosed)
	}
	st := &r.state[i]
	if st.pos.Load() >= draining {
		return fmt.Errorf("shard: ReviveShard(%d): %w", i, ErrShardDown)
	}
	st.strikes.Store(0)
	st.autoDrain.Store(false)
	st.pos.Store(live)
	return nil
}
