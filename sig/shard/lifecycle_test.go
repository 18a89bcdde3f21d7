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

	pos  int32 // shard 0's lifecycle word
	live int   // Router.Live()
	err  error // the sentinel the operation answered (nil: none)
	slot int   // AddShard's slot, -1 for every other answer
}

// The fleets. "pair" is shard 0 beside one live peer and no headroom: every
// position is reachable and AddShard has only shard 0's own slot to reuse.
// "last" is two slots in which shard 0 is the last live shard — slot 1
// drained — so only live is reachable and the drain that would leave the
// fleet with no live shard is refused. "closed" is the pair after Close.
var lifecycleTable = []lifecycleRow{
	// fleet, from, op → pos, Live, sentinel, slot
	{"pair", live, "Drain", drained, 1, nil, -1},
	{"pair", live, "AddShard", live, 2, ErrFleetFull, -1},

	// draining: a DrainShard in flight. The shard is turned away and the slot
	// is not yet AddShard's to reuse.
	{"pair", draining, "Drain", draining, 1, nil, -1},
	{"pair", draining, "AddShard", draining, 1, ErrShardDraining, -1},

	{"pair", drained, "Drain", drained, 1, nil, -1},
	{"pair", drained, "AddShard", live, 2, nil, 0},

	// The last live shard: the fleet refuses to stop accepting work.
	{"last", live, "Drain", live, 1, ErrLastShard, -1},
	{"last", live, "AddShard", live, 2, nil, 1},

	// After Close every surgery is refused and nothing moves.
	{"closed", live, "Drain", live, 2, ErrRouterClosed, -1},
	{"closed", live, "AddShard", live, 2, ErrRouterClosed, -1},
}

// lifecycleOps are the table's operations on shard 0.
var lifecycleOps = []struct {
	name string
	do   func(r *Router) (int, error)
}{
	{"Drain", func(r *Router) (int, error) { return -1, r.DrainShard(0) }},
	{"AddShard", func(r *Router) (int, error) { return r.AddShard() }},
}

// lifecycleFleet builds the named fleet with shard 0 at from, and returns a
// release that lets a held drain finish.
func lifecycleFleet(t *testing.T, fleet string, from int32) (r *Router, release func()) {
	t.Helper()
	r, err := New(Config{Shards: 2, Runtime: sig.Config{Workers: 1}})
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
		must(r.DrainShard(1))
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
// every reachable position of a shard, in a fleet where it has a live peer,
// in one where it is the last live shard and in a closed one, every operation
// leaves exactly the recorded position, Live count and sentinel. The table is
// the specification DESIGN.md quotes.
func TestLifecycleTable(t *testing.T) {
	reachable := map[string][]int32{
		"pair":   {live, draining, drained},
		"last":   {live},
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
					t.Errorf("no table row for fleet %q, position %d, op %s", fleet, from, op.name)
					continue
				}
				checked++
				r, release := lifecycleFleet(t, fleet, from)
				slot, err := op.do(r)
				got := lifecycleRow{
					fleet: fleet, from: from, op: op.name,
					pos: r.state[0].pos.Load(), live: r.Live(), err: want.err, slot: slot,
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
