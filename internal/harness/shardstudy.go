package harness

import (
	"fmt"
	"io"
	"math"

	"repro/sig"
	"repro/sig/shard"
)

// ShardStudy pins what multi-runtime sharding must not change. Each shard is
// one fixed-size sig.Runtime (its worker pool and bounded run queues are the
// "NUMA-ish" resource slice of the ROADMAP) and the router multiplies those
// resources; every fleet size executes the identical task stream with
// declared costs, so the router's merged joules must be bit-identical across
// shard counts and to a plain single-runtime golden — the exact-integer
// busy-nanosecond summation at work. What sharding costs in wall time is the
// benchmark's subject (shard.* in `go run ./benchmark`), not this study's.
//
// A second table sweeps the placement policies at placementShards shards
// under GTB(max) at ratio 0.5, reporting the per-shard spread and the
// merged provided ratio (the cross-shard ratio floor, observed rather than
// asserted — the invariant suite in sig/shard asserts it).

const (
	// shardWorkers and shardQueue size every shard: its pool and each
	// worker's bounded run queue.
	shardWorkers = 1
	shardQueue   = 64
	// shardTasks and shardCost are the stream every fleet size executes:
	// 85% of a four-shard fleet's queue slots, each task declaring 30 µs —
	// the stream of every earlier record of this study, so the joules
	// column still compares with them.
	shardTasks = 4 * shardWorkers * shardQueue * 85 / 100
	shardCost  = 30_000.0
	// placementShards is the fleet size of the placement sweep.
	placementShards = 4
)

// shardCounts are the fleet sizes of the energy table.
var shardCounts = [...]int{1, 2, 4, 8}

// ShardRow is one fleet size's measurement.
type ShardRow struct {
	Shards int
	// Capacity is the fleet's aggregate queue slots.
	Capacity int
	// Joules is the merged modeled energy of the stream.
	Joules float64
}

// ShardPlacementRow is one placement policy's behavior at placementShards
// shards.
type ShardPlacementRow struct {
	Placement shard.PlacementKind
	// MinShare/MaxShare are the smallest and largest per-shard task
	// shares of the stream.
	MinShare, MaxShare int
	// Requested/Provided are the merged ratio command and delivery.
	Requested, Provided float64
}

// ShardResult is the outcome of the sharding study.
type ShardResult struct {
	Rows []ShardRow
	// GoldenJoules is a plain (router-free) sig.Runtime executing the
	// stream; JoulesAdditive reports whether every row's merged joules are
	// bit-identical to it.
	GoldenJoules   float64
	JoulesAdditive bool
	Placements     []ShardPlacementRow
}

// shardSpecs builds the study's task stream: identical declared-cost tasks,
// every one accurate (the study is about the energy account, not shedding).
func shardSpecs() []sig.TaskSpec {
	specs := make([]sig.TaskSpec, shardTasks)
	for i := range specs {
		specs[i] = sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: shardCost}
	}
	return specs
}

// shardJoules runs the stream through a fleet of the given size and returns
// its merged modeled energy.
func shardJoules(shards int) (float64, error) {
	r, err := shard.New(shard.Config{
		Shards:  shards,
		Runtime: sig.Config{Workers: shardWorkers, Policy: sig.PolicyAccurate, QueueCapacity: shardQueue},
	})
	if err != nil {
		return 0, err
	}
	g := r.Group("stream", 1.0)
	r.SubmitBatch(g, shardSpecs())
	r.Wait(g)
	if err := r.Close(); err != nil {
		return 0, err
	}
	return r.Energy().Joules, nil
}

// placementSweep exercises each placement policy at placementShards shards
// under GTB(max) at ratio 0.5 on a nine-tier stream with two cost classes.
func placementSweep() ([]ShardPlacementRow, error) {
	const n = 1800
	var rows []ShardPlacementRow
	for _, placement := range []shard.PlacementKind{shard.PlaceRoundRobin, shard.PlaceLeastLoad, shard.PlaceCostAffinity} {
		r, err := shard.New(shard.Config{
			Shards:    placementShards,
			Placement: placement,
			Runtime:   sig.Config{Workers: shardWorkers, Policy: sig.PolicyGTBMaxBuffer},
		})
		if err != nil {
			return nil, err
		}
		g := r.Group("place", 0.5)
		specs := make([]sig.TaskSpec, n)
		for i := range specs {
			cost := 1000.0
			if i%3 == 0 {
				cost = 30000.0 // distinct cost class: exercises affinity and load skew
			}
			specs[i] = sig.TaskSpec{
				Fn:           func() {},
				Approx:       func() {},
				Significance: float64(i%9+1) / 10,
				HasCost:      true, CostAccurate: cost, CostApprox: cost / 8,
			}
		}
		r.SubmitBatch(g, specs)
		r.Wait(g)
		row := ShardPlacementRow{Placement: placement, Requested: 0.5, MinShare: n}
		row.Provided = g.Stats().ProvidedRatio
		for i := 0; i < placementShards; i++ {
			share := int(g.Part(i).Stats().Submitted)
			row.MinShare = min(row.MinShare, share)
			row.MaxShare = max(row.MaxShare, share)
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ShardStudy runs the multi-runtime sharding evaluation.
func ShardStudy() (ShardResult, error) {
	res := ShardResult{JoulesAdditive: true}

	// Router-free golden for the energy-additivity check.
	rt, err := sig.New(sig.Config{Workers: shardWorkers, Policy: sig.PolicyAccurate, QueueCapacity: shardQueue})
	if err != nil {
		return res, err
	}
	rt.SubmitBatch(nil, shardSpecs())
	rt.Wait(nil)
	rt.Close()
	res.GoldenJoules = rt.Energy().Joules

	for _, shards := range shardCounts {
		joules, err := shardJoules(shards)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, ShardRow{Shards: shards, Capacity: shards * shardWorkers * shardQueue, Joules: joules})
		if math.Float64bits(joules) != math.Float64bits(res.GoldenJoules) {
			res.JoulesAdditive = false
		}
	}
	res.Placements, err = placementSweep()
	return res, err
}

// PrintShardStudy renders the study.
func PrintShardStudy(w io.Writer, r ShardResult) {
	fmt.Fprintf(w, "Shard study: %d-task stream over fixed shards (%d worker(s)/shard, queue %d, declared cost %.0f)\n",
		shardTasks, shardWorkers, shardQueue, shardCost)
	fmt.Fprintf(w, "%-7s %9s %12s\n", "shards", "capacity", "energy")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-7d %9d %11.4fJ\n", row.Shards, row.Capacity, row.Joules)
	}
	additive := "bit-identical across fleet sizes and to the runtime golden"
	if !r.JoulesAdditive {
		additive = "NOT additive — energy merge broken"
	}
	fmt.Fprintf(w, "merged joules %s (golden %.4fJ)\n", additive, r.GoldenJoules)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "placement sweep at %d shards (GTB(max), ratio 0.50, two cost classes):\n", placementShards)
	fmt.Fprintf(w, "%-14s %12s %8s %8s\n", "placement", "share", "req%", "prov%")
	for _, p := range r.Placements {
		fmt.Fprintf(w, "%-14s %5d..%-6d %8.1f %8.1f\n",
			p.Placement, p.MinShare, p.MaxShare, 100*p.Requested, 100*p.Provided)
	}
}
