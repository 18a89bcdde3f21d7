// Package chaos provides seeded, replayable fleet surgery for the
// significance-aware fleet: every scenario it produces is a deterministic
// function of its seed, so a chaos test is a regression test, not a flake.
//
// Schedule derives a replayable surgery plan — drain, rejoin — that Apply
// executes against a shard.Router at wave boundaries. Refused operations
// (last live shard, fleet at capacity, slot still draining) are skipped: the
// router's guardrails are part of the contract under test.
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

	"repro/sig/shard"
)

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
