package shard

import (
	"sync/atomic"
	"testing"

	"repro/sig"
)

// FuzzShardRouting feeds adversarial routing scenarios — shard count,
// sig policy, significance stream, wave cuts and mid-stream
// ratio retargeting — through the Router and
// holds it to the cross-shard invariants (invariant_test.go): global
// conservation against instrumented bodies and the shard sum, the
// special-significance contracts, the merged ratio floor (when a single
// ratio is defined for the whole run), and Wait sanity.
//
// Input encoding (every byte string is valid):
//
//	data[0]  shard count, 1 + v%8
//	data[1]  reserved, ignored (kept so the seeds keep their layout)
//	data[2]  sig policy selector
//	data[3]  requested ratio, v/255
//	data[4]  flags: bit0 = batch submission; bit1 = every third task has
//	         no approximate body; bit3 = wave boundaries retarget the
//	         ratio; bits 2 and 4 are reserved, ignored (kept so the seeds
//	         keep their layout)
//	data[5]  workers per shard, 1 + v%3
//	data[6:] the stream: 255 is a taskwait boundary (followed, when
//	         retargeting, by one byte of new ratio); 254 is reserved, a
//	         no-op (kept so the seeds keep their layout); any other byte v
//	         is a task of significance v/253 — so the fuzzer can position
//	         the special values adversarially.
func FuzzShardRouting(f *testing.F) {
	// Seeds: baseline, retargeting, single-shard degenerate, and streams
	// dense in reserved bytes.
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
		shards := 1 + int(data[0])%8
		kind := kinds[int(data[2])%len(kinds)]
		ratio := float64(data[3]) / 255
		batch := data[4]&1 != 0
		noApprox := 0
		if data[4]&2 != 0 {
			noApprox = 3
		}
		retargets := data[4]&8 != 0
		workers := 1 + int(data[5])%3
		stream := data[6:]
		if len(stream) > 1024 {
			stream = stream[:1024]
		}

		r, err := New(Config{
			Shards:  shards,
			Runtime: sig.Config{Workers: workers, Policy: kind},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		g := r.Group("fuzz", ratio)

		var sigs []float64
		var ranAcc, ranApx []atomic.Bool
		grow := func() int {
			i := len(sigs)
			sigs = append(sigs, 0)
			return i
		}
		// The instrumented flags must not move once a task can write them,
		// so they are pre-sized to the worst case.
		ranAcc = make([]atomic.Bool, len(stream))
		ranApx = make([]atomic.Bool, len(stream))

		waves := 1
		var pending []sig.TaskSpec
		flush := func() {
			if len(pending) == 0 {
				return
			}
			if batch {
				r.SubmitBatch(g, pending)
			} else {
				for _, sp := range pending {
					r.Submit(g, sp)
				}
			}
			pending = pending[:0]
		}
		for pos := 0; pos < len(stream); pos++ {
			v := stream[pos]
			if v == 255 {
				flush()
				r.Wait(g)
				waves++
				if retargets && pos+1 < len(stream) {
					pos++
					g.SetRatio(float64(stream[pos]) / 253)
				}
				continue
			}
			if v == 254 {
				continue // reserved
			}
			i := grow()
			s := float64(v) / 253
			sigs[i] = s
			spec := sig.TaskSpec{
				Fn:           func() { ranAcc[i].Store(true) },
				Significance: s,
				HasCost:      true, CostAccurate: 10, CostApprox: 1,
			}
			if noApprox == 0 || i%noApprox != 0 {
				spec.Approx = func() { ranApx[i].Store(true) }
			}
			if s == 0 {
				spec.Significance = -1 // batch spelling of the special 0.0
			}
			pending = append(pending, spec)
		}
		flush()
		provided := r.Wait(g)

		sc := shardScenario{
			shards:   shards,
			kind:     kind,
			workers:  workers,
			ratio:    ratio,
			sigs:     sigs,
			batch:    batch,
			waves:    waves,
			noApprox: noApprox,
		}
		// Mid-stream retargeting makes the single-ratio floor ill-defined;
		// those runs check conservation, specials and Wait sanity only.
		if retargets {
			sc.ratio = 0
		}
		checkShardInvariants(t, sc, r, g, ranAcc[:len(sigs)], ranApx[:len(sigs)], g.Stats(), provided)
	})
}
