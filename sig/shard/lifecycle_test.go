package shard

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"repro/sig"
)

// TestShardStateIsOneCacheLine pins the layout the submit path relies on:
// route's inflight.Add on shard i must not share a line with shard i+1.
func TestShardStateIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shardState{}); got != 64 {
		t.Fatalf("shardState is %d bytes, want exactly one 64-byte cache line", got)
	}
}

// lifecycleRow is one cell of the lifecycle table: shard 0 of the named fleet
// stands at from, op is applied to it, and everything observable afterwards is
// the rest of the row.
type lifecycleRow struct {
	fleet string
	from  int32
	op    string

	pos      int32       // shard 0's lifecycle word
	health   HealthState // what Health(0) announces for it
	live     int         // Router.Live()
	routable int         // Router.Routable()
	strikes  int32       // shard 0's consecutive strikes
	err      error       // the sentinel the operation answered (nil: none, or nothing to answer)
	slot     int         // AddShard's slot, -1 for every other answer
}

// The fleets. "pair" is shard 0 beside one live peer and no headroom: every
// position is reachable and AddShard has only shard 0's own slot to reuse.
// "last" is three slots in which shard 0 is the last routable shard — slot 1
// quarantined, slot 2 drained — so only live and suspect are reachable (the
// Quarantine and Drain rows are why) and every arc that would leave the fleet
// unroutable is refused.
//
// The operations. A strike is applied at three consecutive-strike counts:
// below QuarantineAfter ("strike<Q", the first strike), reaching it
// ("strike=Q") and reaching DrainAfter ("strike=D", whose drain runs on its own
// goroutine; the row is the state once it landed). A strike answers nothing,
// so a surgery it triggers is refused silently. Every other operation starts
// from one recorded strike, so the rows show who clears it.
var lifecycleTable = []lifecycleRow{
	// fleet, from, op → pos, Health, Live, Routable, strikes, sentinel, slot
	{"pair", live, "strike<Q", suspect, HealthSuspect, 2, 2, 1, nil, -1},
	{"pair", live, "strike=Q", quarantined, HealthQuarantined, 2, 1, 2, nil, -1},
	{"pair", live, "strike=D", drained, HealthDrained, 1, 1, 4, nil, -1},
	{"pair", live, "waveOK", live, HealthLive, 2, 2, 0, nil, -1},
	{"pair", live, "Quarantine", quarantined, HealthQuarantined, 2, 1, 1, nil, -1},
	{"pair", live, "Revive", live, HealthLive, 2, 2, 0, nil, -1},
	{"pair", live, "Drain", drained, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", live, "AddShard", live, HealthLive, 2, 2, 1, ErrFleetFull, -1},

	{"pair", suspect, "strike<Q", suspect, HealthSuspect, 2, 2, 1, nil, -1},
	{"pair", suspect, "strike=Q", quarantined, HealthQuarantined, 2, 1, 2, nil, -1},
	{"pair", suspect, "strike=D", drained, HealthDrained, 1, 1, 4, nil, -1},
	{"pair", suspect, "waveOK", live, HealthLive, 2, 2, 0, nil, -1},
	{"pair", suspect, "Quarantine", quarantined, HealthQuarantined, 2, 1, 1, nil, -1},
	{"pair", suspect, "Revive", live, HealthLive, 2, 2, 0, nil, -1},
	{"pair", suspect, "Drain", drained, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", suspect, "AddShard", suspect, HealthSuspect, 2, 2, 1, ErrFleetFull, -1},

	// Quarantine is sticky: a healthy (empty) wave clears the strikes but does
	// not readmit the shard; only ReviveShard does.
	{"pair", quarantined, "strike<Q", quarantined, HealthQuarantined, 2, 1, 1, nil, -1},
	{"pair", quarantined, "strike=Q", quarantined, HealthQuarantined, 2, 1, 2, nil, -1},
	{"pair", quarantined, "strike=D", drained, HealthDrained, 1, 1, 4, nil, -1},
	{"pair", quarantined, "waveOK", quarantined, HealthQuarantined, 2, 1, 0, nil, -1},
	{"pair", quarantined, "Quarantine", quarantined, HealthQuarantined, 2, 1, 1, nil, -1},
	{"pair", quarantined, "Revive", live, HealthLive, 2, 2, 0, nil, -1},
	{"pair", quarantined, "Drain", drained, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", quarantined, "AddShard", quarantined, HealthQuarantined, 2, 1, 1, ErrFleetFull, -1},

	// draining: a DrainShard in flight. Health already says drained, strikes
	// are no longer counted, and the slot is not yet AddShard's to reuse.
	{"pair", draining, "strike<Q", draining, HealthDrained, 1, 1, 0, nil, -1},
	{"pair", draining, "strike=Q", draining, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", draining, "strike=D", draining, HealthDrained, 1, 1, 3, nil, -1},
	{"pair", draining, "waveOK", draining, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", draining, "Quarantine", draining, HealthDrained, 1, 1, 1, ErrShardDown, -1},
	{"pair", draining, "Revive", draining, HealthDrained, 1, 1, 1, ErrShardDown, -1},
	{"pair", draining, "Drain", draining, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", draining, "AddShard", draining, HealthDrained, 1, 1, 1, ErrShardDraining, -1},

	{"pair", drained, "strike<Q", drained, HealthDrained, 1, 1, 0, nil, -1},
	{"pair", drained, "strike=Q", drained, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", drained, "strike=D", drained, HealthDrained, 1, 1, 3, nil, -1},
	{"pair", drained, "waveOK", drained, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", drained, "Quarantine", drained, HealthDrained, 1, 1, 1, ErrShardDown, -1},
	{"pair", drained, "Revive", drained, HealthDrained, 1, 1, 1, ErrShardDown, -1},
	{"pair", drained, "Drain", drained, HealthDrained, 1, 1, 1, nil, -1},
	{"pair", drained, "AddShard", live, HealthLive, 2, 2, 0, nil, 0},

	// The last routable shard: the fleet keeps accepting work on a suspect
	// shard over accepting none, however many strikes it collects.
	{"last", live, "strike<Q", suspect, HealthSuspect, 2, 1, 1, nil, -1},
	{"last", live, "strike=Q", live, HealthLive, 2, 1, 2, nil, -1},
	{"last", live, "strike=D", live, HealthLive, 2, 1, 4, nil, -1},
	{"last", live, "waveOK", live, HealthLive, 2, 1, 0, nil, -1},
	{"last", live, "Quarantine", live, HealthLive, 2, 1, 1, ErrLastShard, -1},
	{"last", live, "Revive", live, HealthLive, 2, 1, 0, nil, -1},
	{"last", live, "Drain", live, HealthLive, 2, 1, 1, ErrLastShard, -1},
	{"last", live, "AddShard", live, HealthLive, 3, 2, 1, nil, 2},

	{"last", suspect, "strike<Q", suspect, HealthSuspect, 2, 1, 1, nil, -1},
	{"last", suspect, "strike=Q", suspect, HealthSuspect, 2, 1, 2, nil, -1},
	{"last", suspect, "strike=D", suspect, HealthSuspect, 2, 1, 4, nil, -1},
	{"last", suspect, "waveOK", live, HealthLive, 2, 1, 0, nil, -1},
	{"last", suspect, "Quarantine", suspect, HealthSuspect, 2, 1, 1, ErrLastShard, -1},
	{"last", suspect, "Revive", live, HealthLive, 2, 1, 0, nil, -1},
	{"last", suspect, "Drain", suspect, HealthSuspect, 2, 1, 1, ErrLastShard, -1},
	{"last", suspect, "AddShard", suspect, HealthSuspect, 3, 2, 1, nil, 2},

	// After Close every surgery is refused and nothing moves.
	{"closed", live, "Quarantine", live, HealthLive, 2, 2, 1, ErrRouterClosed, -1},
	{"closed", live, "Revive", live, HealthLive, 2, 2, 1, ErrRouterClosed, -1},
	{"closed", live, "Drain", live, HealthLive, 2, 2, 1, ErrRouterClosed, -1},
	{"closed", live, "AddShard", live, HealthLive, 2, 2, 1, ErrRouterClosed, -1},
}

// lifecycleOps are the table's operations on shard 0, each with the strike
// count it starts from.
var lifecycleOps = []struct {
	name    string
	preset  int32
	surgery bool
	do      func(r *Router) (int, error)
}{
	{"strike<Q", 0, false, lifecycleStrike},
	{"strike=Q", DefaultQuarantineAfter - 1, false, lifecycleStrike},
	{"strike=D", DefaultDrainAfter - 1, false, lifecycleStrike},
	{"waveOK", 1, false, func(r *Router) (int, error) { r.waveOK(0); return -1, nil }},
	{"Quarantine", 1, true, func(r *Router) (int, error) { return -1, r.QuarantineShard(0) }},
	{"Revive", 1, true, func(r *Router) (int, error) { return -1, r.ReviveShard(0) }},
	{"Drain", 1, true, func(r *Router) (int, error) { return -1, r.DrainShard(0) }},
	{"AddShard", 1, true, func(r *Router) (int, error) { return r.AddShard() }},
}

func lifecycleStrike(r *Router) (int, error) { r.strike(0); return -1, nil }

// lifecycleFleet builds the named fleet with shard 0 at from, and returns a
// release that lets a held drain finish.
func lifecycleFleet(t *testing.T, fleet string, from int32) (r *Router, release func()) {
	t.Helper()
	shards := map[string]int{"pair": 2, "last": 3, "closed": 2}[fleet]
	r, err := New(Config{
		Shards:      shards,
		Runtime:     sig.Config{Workers: 1},
		HealthProbe: func(int) error { return nil }, // health tracking on
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("building fleet %q at position %d: %v", fleet, from, err)
		}
	}
	release = func() {}
	switch from {
	case suspect:
		r.strike(0)
	case quarantined:
		must(r.QuarantineShard(0))
	case draining:
		// A submission that picked shard 0 and has not landed holds the drain
		// between its two stores.
		r.state[0].inflight.Add(1)
		done := make(chan error, 1)
		go func() { done <- r.DrainShard(0) }()
		if !awaitLifecycle(func() bool { return r.state[0].pos.Load() == draining }) {
			t.Fatal("the held drain never turned shard 0 away")
		}
		release = func() {
			r.state[0].inflight.Add(-1)
			must(<-done)
		}
	case drained:
		must(r.DrainShard(0))
	}
	switch fleet {
	case "last":
		must(r.QuarantineShard(1))
		must(r.DrainShard(2))
	case "closed":
		must(r.Close())
	}
	if got := r.state[0].pos.Load(); got != from {
		t.Fatalf("fleet %q: shard 0 at position %d, want %d", fleet, got, from)
	}
	return r, release
}

// awaitLifecycle polls for a transition another goroutine makes; false means
// it never landed.
func awaitLifecycle(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// TestLifecycleTable holds the one-word lifecycle to its literal table: for
// every reachable position of a shard, in a fleet where it has a routable
// peer and in one where it is the last routable shard, every operation leaves
// exactly the recorded position, Health, Live, Routable, strike count and
// sentinel. The table is the specification DESIGN.md quotes.
func TestLifecycleTable(t *testing.T) {
	reachable := map[string][]int32{
		"pair":   {live, suspect, quarantined, draining, drained},
		"last":   {live, suspect},
		"closed": {live},
	}
	type cell struct {
		fleet string
		from  int32
		op    string
	}
	rows := make(map[cell]lifecycleRow, len(lifecycleTable))
	for _, row := range lifecycleTable {
		rows[cell{row.fleet, row.from, row.op}] = row
	}
	checked := 0
	for fleet, positions := range reachable {
		for _, from := range positions {
			for _, op := range lifecycleOps {
				want, ok := rows[cell{fleet, from, op.name}]
				if !ok {
					if fleet == "closed" && !op.surgery {
						continue // Close refuses surgery; strikes and waves answer nothing to refuse
					}
					t.Errorf("no table row for fleet %q, position %d, op %s", fleet, from, op.name)
					continue
				}
				checked++
				r, release := lifecycleFleet(t, fleet, from)
				r.state[0].strikes.Store(op.preset)
				slot, err := op.do(r)
				// strike=D drains on its own goroutine; a position that never
				// lands is reported by the comparison below.
				awaitLifecycle(func() bool { return r.state[0].pos.Load() == want.pos })
				got := lifecycleRow{
					fleet: fleet, from: from, op: op.name,
					pos: r.state[0].pos.Load(), health: r.Health(0),
					live: r.Live(), routable: r.Routable(),
					strikes: r.state[0].strikes.Load(), err: want.err, slot: slot,
				}
				if !errors.Is(err, want.err) {
					t.Errorf("%s / %d / %s answered %v, want %v", fleet, from, op.name, err, want.err)
				}
				if got != want {
					t.Errorf("%s / %d / %s:\n got %+v\nwant %+v", fleet, from, op.name, got, want)
				}
				release()
			}
		}
	}
	if checked != len(lifecycleTable) {
		t.Errorf("checked %d cells, table has %d rows: a row names an unreachable cell or a cell twice", checked, len(lifecycleTable))
	}
}
