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
// (drain / rejoin / quarantine / revive at wave boundaries) while the
// injector plants panics and delays into the task stream, and checks the
// self-healing contracts:
//
//   - conservation: every submitted task is decided exactly once, across
//     any interleaving of surgery and waves (retired incarnations counted);
//   - availability: the router's guardrails keep at least one routable
//     shard at all times;
//   - deterministic energy: every task declares its cost and panicked
//     bodies still charge it, so the merged busy time equals the exact
//     integer outcome arithmetic — rejoins must not lose or double-count a
//     nanosecond;
//   - fault accounting: the fleet absorbs exactly the panics the injector
//     planted, across drain+rejoin.
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
//	data[7]  PanicEvery (0..4; 0 = no panics)
//	data[8]  DelayEvery (0..5; 0 = no delays)
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

		in := NewInjector(seed, Config{
			PanicEvery: int(data[7]) % 5,
			DelayEvery: int(data[8]) % 6,
			Delay:      200 * time.Microsecond,
		})
		r, err := shard.New(shard.Config{
			Shards:    shards,
			MaxShards: shards + spare,
			Runtime:   sig.Config{Workers: 1, Policy: policy, RecoverPanics: true},
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
				specs[k] = in.Wrap(sig.TaskSpec{
					Fn:           func() { ran.Add(1) },
					Approx:       func() { ran.Add(1) },
					Significance: float64((w*perWave+k)%11) / 10,
					HasCost:      true, CostAccurate: costAcc, CostApprox: costDeg,
				})
			}
			r.SubmitBatch(g, specs)
			submitted += perWave
			// Surgery mid-stream: the batch may still be queued when its
			// shard drains (drain waits it out) or its slot rejoins.
			Apply(r, plan, w)
			if r.Routable() < 1 {
				t.Fatalf("wave %d: no routable shard left", w)
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
		if got, want := ran.Load()+r.Panics(), gs.Accurate+gs.Approximate; got != want {
			t.Fatalf("bodies ran %d + panicked %d != executed %d",
				ran.Load(), r.Panics(), want)
		}
		if got := r.Panics(); got != in.Panicked() {
			t.Fatalf("fleet absorbed %d panics, injector planted %d", got, in.Panicked())
		}
		// Exact integer energy: declared costs only, panics charge too.
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
