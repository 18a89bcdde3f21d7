package shard

import (
	"testing"
	"time"

	"repro/sig"
)

// TestMergeReproducesSpelledOutAccount holds sig's Merge helpers to the
// formulas this package used to spell out itself. On a stream of 217 tasks
// declaring 30 µs each, at 1, 2, 4 and 8 shards, the frozen Router.Energy() and Router.Stats() equal, bit for bit, the
// per-shard reports and snapshots summed by hand in slot order: integer busy
// sum priced in one multiplication, the slowest wall, counters added, provided
// = accurate ÷ decided.
func TestMergeReproducesSpelledOutAccount(t *testing.T) {
	const tasks, cost = 217, 30_000
	for _, shards := range []int{1, 2, 4, 8} {
		r, err := New(Config{
			Shards:  shards,
			Runtime: sig.Config{Workers: 1, Policy: sig.PolicyAccurate, QueueCapacity: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]sig.TaskSpec, tasks)
		for i := range specs {
			specs[i] = sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: cost}
		}
		g := r.Group("stream", 1.0)
		r.SubmitBatch(g, specs)
		r.Wait(g)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		var busy, wall time.Duration
		workers := 0
		for _, rep := range r.ShardEnergy() {
			busy += rep.Busy
			wall = max(wall, rep.Wall)
			workers += rep.Workers
		}
		wantRep := sig.Report{
			Joules: sig.DefaultActiveWatts * busy.Seconds(), Wall: wall, Busy: busy, Workers: workers,
		}
		if got := r.Energy(); got != wantRep || busy != tasks*cost {
			t.Errorf("%d shards: Energy() = %+v, spelled out %+v (busy want %d ns)", shards, got, wantRep, tasks*cost)
		}

		want := sig.GroupStats{Name: "stream", RequestedRatio: 1}
		for _, st := range r.ShardStats() {
			for _, gs := range st.Groups {
				want.Submitted += gs.Submitted
				want.Accurate += gs.Accurate
				want.Approximate += gs.Approximate
				want.Dropped += gs.Dropped
			}
		}
		want.ProvidedRatio = float64(want.Accurate) / float64(want.Accurate+want.Approximate+want.Dropped)
		st := r.Stats()
		if len(st.Groups) != 1 || st.Groups[0].Name != want.Name || st.Groups[0].Submitted != tasks ||
			st.Groups[0].Accurate != want.Accurate || st.Groups[0].ProvidedRatio != want.ProvidedRatio ||
			st.Groups[0].RequestedRatio != want.RequestedRatio {
			t.Errorf("%d shards: Stats().Groups = %+v, spelled out %+v", shards, st.Groups, want)
		}
		if st.Submitted != want.Submitted || st.Accurate != want.Accurate ||
			st.Approximate != want.Approximate || st.Dropped != want.Dropped {
			t.Errorf("%d shards: Stats() totals %+v, spelled out %+v", shards, st, want)
		}
	}
}
