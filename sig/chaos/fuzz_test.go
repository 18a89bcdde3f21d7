package chaos

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"repro/sig"
	"repro/sig/shard"
)

// FuzzChaosSchedule drives a fleet through adversarial seeded surgery plans
// (drain / rejoin at wave boundaries) and checks the self-healing contracts:
//
//   - conservation: every submitted task is decided exactly once, across
//     any interleaving of surgery and waves (retired incarnations counted);
//   - availability: the router's guardrails keep at least one live shard at
//     all times;
//   - deterministic energy: every task declares its cost, so the merged busy
//     time equals the exact integer outcome arithmetic — rejoins must not
//     lose or double-count a nanosecond.
//
// Input encoding (every byte string is valid):
//
//	data[0]  shards (1..4)
//	data[1]  spare slots above shards (0..2)
//	data[2]  surgery ops per wave (1..3)
//	data[3]  waves (1..6)
//	data[4]  tasks per wave (0..23)
//	data[5]  global ratio, data[5]/255
//	data[6]  policy (accurate, GTB, GTBmax, perforation, LQH)
//	data[7:9] reserved, ignored (kept so the seeds keep their layout)
//	data[9:17] surgery-plan seed (little-endian, zero-padded)
func FuzzChaosSchedule(f *testing.F) {
	f.Add([]byte{2, 1, 1, 4, 12, 128, 2, 3, 0, 42, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 2, 3, 6, 23, 255, 0, 0, 5, 7, 7, 7, 7, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 2, 8, 0, 4, 2, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 1, 2, 5, 16, 77, 3, 4, 3, 99, 1, 0, 255, 0, 0, 0, 0})

	policies := []sig.PolicyKind{
		sig.PolicyAccurate, sig.PolicyGTB, sig.PolicyGTBMaxBuffer,
		sig.PolicyPerforation, sig.PolicyLQH,
	}
	const costAcc, costDeg = 1000.0, 100.0

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			t.Skip()
		}
		shards := 1 + int(data[0])%4
		spare := int(data[1]) % 3
		opsPerWave := 1 + int(data[2])%3
		waves := 1 + int(data[3])%6
		perWave := int(data[4]) % 24
		ratio := float64(data[5]) / 255
		policy := policies[int(data[6])%len(policies)]
		var seedb [8]byte
		copy(seedb[:], data[9:])
		seed := int64(binary.LittleEndian.Uint64(seedb[:]) >> 1)

		r, err := shard.New(shard.Config{
			Shards:    shards,
			MaxShards: shards + spare,
			Runtime:   sig.Config{Workers: 1, Policy: policy},
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := Schedule(seed, waves, shards+spare, opsPerWave)
		g := r.Group("fuzz", ratio)

		var ran atomic.Int64
		submitted := 0
		for w := 0; w < waves; w++ {
			specs := make([]sig.TaskSpec, perWave)
			for k := range specs {
				specs[k] = sig.TaskSpec{
					Fn:           func() { ran.Add(1) },
					Approx:       func() { ran.Add(1) },
					Significance: float64((w*perWave+k)%11) / 10,
					HasCost:      true, CostAccurate: costAcc, CostApprox: costDeg,
				}
			}
			r.SubmitBatch(g, specs)
			submitted += perWave
			// Surgery mid-stream: the batch may still be queued when its
			// shard drains (drain waits it out) or its slot rejoins.
			Apply(r, plan, w)
			if r.Live() < 1 {
				t.Fatalf("wave %d: no live shard left", w)
			}
			r.WaitPhase(g)
		}
		r.Wait(g)

		gs := g.Stats()
		if gs.Submitted != int64(submitted) {
			t.Fatalf("submitted %d, stats count %d", submitted, gs.Submitted)
		}
		decided := gs.Accurate + gs.Approximate + gs.Dropped
		if decided != gs.Submitted {
			t.Fatalf("%d submitted, %d decided — surgery lost work", gs.Submitted, decided)
		}
		if got, want := ran.Load(), gs.Accurate+gs.Approximate; got != want {
			t.Fatalf("bodies ran %d != executed %d", got, want)
		}
		// Exact integer energy: declared costs only.
		rep := r.Energy()
		want := time.Duration(gs.Accurate)*time.Duration(costAcc) +
			time.Duration(gs.Approximate)*time.Duration(costDeg)
		if rep.Busy != want {
			t.Fatalf("merged busy %v, want exact %v (acc %d, apx %d)",
				rep.Busy, want, gs.Accurate, gs.Approximate)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
