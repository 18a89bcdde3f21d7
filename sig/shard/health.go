package shard

import (
	"fmt"
)

// HealthState is one shard's position in the fleet health state machine:
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
// one at live.
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
	st := &r.state[i]
	if st.down.Load() {
		return HealthDrained
	}
	return HealthState(st.health.Load())
}

// HealthStates snapshots every slot's health, indexed by slot.
func (r *Router) HealthStates() []HealthState {
	out := make([]HealthState, len(r.state))
	for i := range out {
		out[i] = r.Health(i)
	}
	return out
}

// Strikes returns shard i's consecutive strike count.
func (r *Router) Strikes(i int) int { return int(r.state[i].strikes.Load()) }

// strike records one missed/failed wave for shard i and advances the health
// state machine. Runs on the merging goroutine (WaitPhase), so transitions
// are deterministic per wave; the auto-drain itself is spawned async
// because closing a wedged shard blocks until its tasks unwedge.
func (r *Router) strike(i int) {
	st := &r.state[i]
	if st.down.Load() {
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
		st.health.CompareAndSwap(int32(HealthLive), int32(HealthSuspect))
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
	if st.down.Load() {
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
	if st.down.Load() {
		return
	}
	st.strikes.Store(0)
	st.autoDrain.Store(false)
	st.health.CompareAndSwap(int32(HealthSuspect), int32(HealthLive))
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
	if st.down.Load() {
		return fmt.Errorf("shard: QuarantineShard(%d): %w", i, ErrShardDown)
	}
	if st.quarantined.Load() {
		return nil
	}
	if r.routableLocked() <= 1 {
		return fmt.Errorf("shard: cannot quarantine shard %d: %w", i, ErrLastShard)
	}
	st.quarantined.Store(true)
	st.health.Store(int32(HealthQuarantined))
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
	if st.down.Load() {
		return fmt.Errorf("shard: ReviveShard(%d): %w", i, ErrShardDown)
	}
	st.quarantined.Store(false)
	st.strikes.Store(0)
	st.autoDrain.Store(false)
	st.health.Store(int32(HealthLive))
	return nil
}
