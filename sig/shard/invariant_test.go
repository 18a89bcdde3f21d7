package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/sig"
)

// Cross-shard invariants, for every sig policy: (1) conservation — the
// merged waves decide every submitted task and agree with the instrumented
// bodies and with the shards' own snapshots; (2) specials — significance 1.0
// runs accurately and 0.0 never does, on whatever shard it landed; (3) the
// ratio floor — the merged provided ratio over policy-decided tasks is at
// least the requested ratio minus the policy's slack; (4) energy additivity
// (TestShardEnergyAdditivity). Tolerances are scheduling-independent, so the
// suite also passes under -race.

// shardScenario is one cross-shard property case.
type shardScenario struct {
	shards, workers int // workers per shard
	kind            sig.PolicyKind
	waves           [][]float64 // each wave's significances
	ratios          []float64   // each wave's requested ratio
	batch           bool        // one SubmitBatch per wave, else one per task
	noApprox        int         // omit the approximate body from every noApprox-th task
}

// shardRatioSlack bounds how far below the requested ratio the merged
// provided ratio may land over n policy-decided tasks: sig's single-runtime
// slack, scaled by the shards, which each round their own quota epochs.
func shardRatioSlack(sc shardScenario, n int) float64 {
	switch sc.kind {
	case sig.PolicyAccurate:
		return 0
	case sig.PolicyGTB, sig.PolicyGTBMaxBuffer:
		// Round-to-nearest plus one task of clamped window carry per epoch.
		return 2.0 * float64(len(sc.waves)*sc.shards) / float64(n)
	case sig.PolicyPerforation:
		// One task of error-diffusion residue per shard.
		return 1.5 * float64(sc.shards) / float64(n)
	case sig.PolicyLQH:
		// Per-worker drift correctors, workers × shards of them.
		return 0.1 + float64(sc.workers*sc.shards)/float64(n) + 1e-9
	}
	panic("unreachable")
}

// checkShardScenario runs sc through a Router, retargeting through
// Router.Group before every wave, and holds it to the invariants.
func checkShardScenario(t *testing.T, sc shardScenario) {
	t.Helper()
	r := newRouter(t, sc.shards, sig.Config{Workers: sc.workers, Policy: sc.kind})
	var sigs []float64
	for _, w := range sc.waves {
		sigs = append(sigs, w...)
	}
	ran := make([]atomic.Int32, len(sigs)) // +1 accurate body, +2 approximate body
	var merged sig.WaveStats
	base := 0 // stream index of the wave's first task
	for w, wave := range sc.waves {
		g := r.Group("inv", sc.ratios[w])
		specs := make([]sig.TaskSpec, len(wave))
		for k, s := range wave {
			i := base + k
			if s == 0 {
				s = -1 // batch spelling of the special 0.0
			}
			specs[k] = sig.TaskSpec{Fn: func() { ran[i].Add(1) }, Significance: s,
				HasCost: true, CostAccurate: 10, CostApprox: 1}
			if sc.noApprox == 0 || i%sc.noApprox != 0 {
				specs[k].Approx = func() { ran[i].Add(2) }
			}
		}
		base += len(wave)
		if sc.batch {
			r.SubmitBatch(g, specs)
		} else {
			for k := range specs {
				r.SubmitBatch(g, specs[k:k+1])
			}
		}
		merged.Merge(r.WaitPhase(g))
	}

	// 1. Conservation, against the bodies and the shard sum.
	var bodies [4]int // tasks by what ran: nothing, accurate, approximate, both
	for i := range ran {
		bodies[ran[i].Load()]++
	}
	var sum [4]int64 // submitted, accurate, approximate, dropped
	for _, st := range r.ShardStats() {
		sum[0], sum[1], sum[2], sum[3] = sum[0]+st.Submitted, sum[1]+st.Accurate, sum[2]+st.Approximate, sum[3]+st.Dropped
	}
	n, a, x, d := len(sigs), merged.Accurate, merged.Approximate, merged.Dropped
	if merged.Submitted != n || merged.Decided() != n || bodies != [4]int{d, a, x, 0} ||
		sum != [4]int64{int64(n), int64(a), int64(x), int64(d)} {
		t.Errorf("%d tasks: merged waves %+v, bodies ran %v (none/acc/approx/both), shard sum %v", n, merged, bodies, sum)
	}

	// 2. Specials hold on whatever shard the task landed.
	decided, decidedAcc := 0, 0
	for i, s := range sigs {
		acc := ran[i].Load() == 1
		switch {
		case s >= 1 && !acc:
			t.Errorf("significance-1.0 task %d did not run accurately", i)
		case s <= 0 && acc:
			t.Errorf("significance-0.0 task %d ran accurately", i)
		case s > 0 && s < 1:
			decided++
			if acc {
				decidedAcc++
			}
		}
	}

	// 3. Merged ratio floor over policy-decided tasks, under one ratio.
	if decided == 0 || slices.ContainsFunc(sc.ratios, func(x float64) bool { return x != sc.ratios[0] }) {
		return
	}
	if prov, floor := float64(decidedAcc)/float64(decided), sc.ratios[0]-shardRatioSlack(sc, decided); prov < floor-1e-9 {
		t.Errorf("%v at %d shards: merged provided ratio %.4f over %d policy-decided tasks below requested %.4f (floor %.4f)",
			sc.kind, sc.shards, prov, decided, sc.ratios[0], floor)
	}
}

// TestShardInvariants is the cross-shard property suite entry point: every
// sig policy, randomized streams from fixed seeds, 1/2/8 shards.
func TestShardInvariants(t *testing.T) {
	kinds := []sig.PolicyKind{sig.PolicyAccurate, sig.PolicyGTB, sig.PolicyGTBMaxBuffer, sig.PolicyLQH, sig.PolicyPerforation}
	ratios := []float64{0, 0.1, 0.33, 0.5, 0.77, 1}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for trial := 0; trial < 9; trial++ {
				r := rand.New(rand.NewSource(int64(9000*int(kind) + trial)))
				sigs := make([]float64, 150+r.Intn(350))
				for i := range sigs {
					switch r.Intn(5) {
					case 0: // the special 0.0
					case 1:
						sigs[i] = 1.0
					default:
						sigs[i] = r.Float64()
					}
				}
				sc := shardScenario{shards: []int{1, 2, 8}[trial%3], kind: kind, workers: 1 + r.Intn(3), batch: trial%2 == 1}
				ratio, waves := ratios[r.Intn(len(ratios))], 1+r.Intn(3)
				sc.noApprox = []int{0, 0, 2, 3}[r.Intn(4)]
				for per, lo := (len(sigs)+waves-1)/waves, 0; lo < len(sigs); lo += per {
					sc.waves = append(sc.waves, sigs[lo:min(lo+per, len(sigs))])
					sc.ratios = append(sc.ratios, ratio)
				}
				// Every trial stripes its stream round-robin, the router's
				// only placement; the name keeps saying so.
				name := fmt.Sprintf("trial%02d-%dx-round-robin-r%.2f-batch%v", trial, sc.shards, ratio, sc.batch)
				t.Run(name, func(t *testing.T) { checkShardScenario(t, sc) })
			}
		})
	}
}

// TestShardEnergyAdditivity pins invariant 4 exactly: at 1, 2, 4 and 8
// shards a forced-accurate stream's merged wave has the busy nanoseconds and
// bit-identical joules of one runtime's wave over the same stream, because
// the merge sums busy nanoseconds as integers and prices them once.
func TestShardEnergyAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := make([]sig.TaskSpec, 500)
	for i := range specs {
		specs[i] = sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: float64(10 + rng.Intn(100_000))}
	}
	cfg := sig.Config{Workers: 2, Policy: sig.PolicyAccurate}
	rt, err := sig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := rt.Group("e", 1.0)
	rt.SubmitBatch(g, specs)
	golden := rt.WaitPhase(g)
	for _, shards := range []int{1, 2, 4, 8} {
		r := newRouter(t, shards, cfg)
		g := r.Group("e", 1.0)
		r.SubmitBatch(g, specs)
		if ws := r.WaitPhase(g); golden.Busy == 0 || ws.Busy != golden.Busy ||
			math.Float64bits(ws.Joules) != math.Float64bits(golden.Joules) {
			t.Errorf("%d shards: merged wave %v J over %v, one runtime %v J over %v",
				shards, ws.Joules, ws.Busy, golden.Joules, golden.Busy)
		}
	}
}

// FuzzShardRouting feeds adversarial scenarios — shard count, sig policy,
// significance stream, wave cuts and mid-stream retargeting through
// Router.Group — to checkShardScenario. Every byte string is valid:
//
//	data[0]  shard count, 1 + v%8
//	data[1]  reserved (bytes and bits marked so keep the seeds' layout)
//	data[2]  sig policy selector
//	data[3]  requested ratio, v/255
//	data[4]  flags: bit0 = one SubmitBatch per wave, else one per task;
//	         bit1 = every third task has no approximate body; bit3 = wave
//	         boundaries retarget the ratio; bits 2 and 4 reserved
//	data[5]  workers per shard, 1 + v%3
//	data[6:] the stream: 255 is a taskwait boundary (followed, when
//	         retargeting, by one byte of new ratio); 254 is reserved, a
//	         no-op; any other byte v is a task of significance v/253, so the
//	         fuzzer can place the special values adversarially.
func FuzzShardRouting(f *testing.F) {
	// Seeds: baseline, retargeting, one shard, dense reserved bytes.
	nine := []byte{3, 0, 2, 128, 0, 1}
	for i := 0; i < 60; i++ {
		nine = append(nine, byte(25*(i%9+1)))
	}
	f.Add(nine)
	f.Add([]byte{7, 1, 1, 85, 4, 2, 100, 100, 254, 100, 100, 255, 100, 254, 100, 100})
	f.Add([]byte{1, 2, 2, 200, 8, 0, 10, 240, 255, 128, 10, 240, 253, 0})
	f.Add([]byte{0, 0, 0, 255, 1, 0, 253, 1, 253, 2, 255, 3})
	f.Add([]byte{5, 1, 3, 64, 6, 1, 254, 254, 254, 254, 254, 100, 255, 200, 254, 50})
	f.Add([]byte{4, 2, 4, 25, 15, 2, 200, 200, 255, 230, 254, 50, 50, 255, 10, 100})
	f.Add([]byte{2, 1, 2, 128, 16, 1, 100, 254, 0, 254, 1, 100, 255, 254, 1, 254, 1, 100})
	f.Add([]byte{3, 2, 3, 77, 17, 2, 254, 2, 50, 254, 3, 255, 254, 0, 254, 1, 200, 253})

	kinds := []sig.PolicyKind{sig.PolicyAccurate, sig.PolicyGTB, sig.PolicyGTBMaxBuffer, sig.PolicyLQH, sig.PolicyPerforation}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			t.Skip()
		}
		sc := shardScenario{shards: 1 + int(data[0])%8, kind: kinds[int(data[2])%len(kinds)], workers: 1 + int(data[5])%3,
			batch: data[4]&1 != 0, waves: [][]float64{nil}, ratios: []float64{float64(data[3]) / 255}}
		if data[4]&2 != 0 {
			sc.noApprox = 3
		}
		stream := data[6:min(len(data), 6+1024)]
		for pos := 0; pos < len(stream); pos++ {
			switch v := stream[pos]; v {
			case 254:
			case 255:
				ratio := sc.ratios[len(sc.ratios)-1]
				if data[4]&8 != 0 && pos+1 < len(stream) {
					pos++
					ratio = float64(stream[pos]) / 253
				}
				sc.waves = append(sc.waves, nil)
				sc.ratios = append(sc.ratios, ratio)
			default:
				sc.waves[len(sc.waves)-1] = append(sc.waves[len(sc.waves)-1], float64(v)/253)
			}
		}
		checkShardScenario(t, sc)
	})
}
