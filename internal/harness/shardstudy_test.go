package harness

import (
	"math"
	"strings"
	"testing"
)

// TestShardStudyScales is the gate of what the sharding study claims: the
// merged modeled joules are bit-identical across 1, 2, 4 and 8 shards and to
// the router-free runtime golden, every placement keeps the merged ratio
// floor, and round-robin splits the stream exactly. (What a fleet costs in
// wall time is measured by `go run ./benchmark`, not here.)
func TestShardStudyScales(t *testing.T) {
	res, err := ShardStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !res.JoulesAdditive {
		t.Error("merged joules diverged across fleet sizes: shard-summed energy must be bit-identical to the single-runtime golden")
	}
	if len(res.Rows) != len(shardCounts) {
		t.Fatalf("got %d rows, want one per fleet size %v", len(res.Rows), shardCounts)
	}
	for i, row := range res.Rows {
		if row.Shards != shardCounts[i] || row.Capacity != row.Shards*shardWorkers*shardQueue {
			t.Errorf("row %d: %+v, want %d shards of %d slots", i, row, shardCounts[i], shardWorkers*shardQueue)
		}
		if row.Joules <= 0 || math.Float64bits(row.Joules) != math.Float64bits(res.GoldenJoules) {
			t.Errorf("%d shards: %.6f J vs golden %.6f J", row.Shards, row.Joules, res.GoldenJoules)
		}
	}
	// The placement sweep must keep the merged ratio floor at every
	// placement (GTB(max) tracks the request to within per-shard wave
	// rounding) and round-robin must split the stream exactly evenly.
	if len(res.Placements) != 3 {
		t.Fatalf("got %d placement rows, want 3", len(res.Placements))
	}
	for _, p := range res.Placements {
		if p.Provided < p.Requested-0.01 {
			t.Errorf("%v: merged provided ratio %.3f under requested %.3f", p.Placement, p.Provided, p.Requested)
		}
	}
	if rr := res.Placements[0]; rr.MinShare != rr.MaxShare {
		t.Errorf("round-robin shares %d..%d, want an exact split", rr.MinShare, rr.MaxShare)
	}

	var sb strings.Builder
	PrintShardStudy(&sb, res)
	for _, want := range []string{"Shard study", "placement sweep", "bit-identical"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("printer output missing %q:\n%s", want, sb.String())
		}
	}
}

// TestServeStudySharded is the sharded overload scenario of the serving
// study: the same 4x step, served by a 4-shard fleet under the
// hierarchical admission controller, must shed quality before requests and
// replay bit-identically — merged joules included.
func TestServeStudySharded(t *testing.T) {
	cfg := ServeConfig{Scale: 0.1, Workers: 1, Shards: 4, Backend: "sobel"}
	res, err := ServeStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Errorf("result records %d shards, want 4", res.Shards)
	}
	if res.Rejected != 0 {
		t.Errorf("%d requests rejected: the sharded fleet must shed quality first", res.Rejected)
	}
	if res.MinStepRatio > res.PreStepRatio-0.3 {
		t.Errorf("ratio only fell to %.3f during the step (pre-step %.3f)", res.MinStepRatio, res.PreStepRatio)
	}
	if res.RecoveredAfter < 0 || res.RecoveredAfter > 8 {
		t.Errorf("recovered after %d waves, want within 8", res.RecoveredAfter)
	}
	if res.P99 > 6 {
		t.Errorf("open-loop p99 latency %d waves, want <= 6", res.P99)
	}
	if res.Outcomes.Accurate+res.Outcomes.Degraded+res.Outcomes.Dropped != res.Outcomes.Completed {
		t.Errorf("outcome conservation broken across shards: %+v", res.Outcomes)
	}
	res2, err := ServeStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.TotalJoules) != math.Float64bits(res2.TotalJoules) {
		t.Fatalf("sharded total joules diverged across identical runs: %v vs %v", res.TotalJoules, res2.TotalJoules)
	}
	for w := range res.Rows {
		a, b := res.Rows[w], res2.Rows[w]
		if math.Float64bits(a.Joules) != math.Float64bits(b.Joules) || a.NextRatio != b.NextRatio || a.Admitted != b.Admitted {
			t.Fatalf("sharded wave %d diverged: %+v vs %+v", w, a, b)
		}
	}
	var sb strings.Builder
	PrintServeStudy(&sb, res)
	if !strings.Contains(sb.String(), "4 shards") {
		t.Errorf("printer does not mention the fleet:\n%s", sb.String())
	}
}
