package sig

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPolicyDecisions feeds adversarial significance/ratio sequences into
// the significance-aware policies (GTB, GTB(max), LQH, Perforation) and
// checks the same invariants as the property suite (invariant_test.go); the
// stream's significances are also ranked as one GTB window and compared with
// a stable sort (checkRank).
//
// Input encoding (every byte string is valid):
//
//	data[0]       policy selector
//	data[1]       requested ratio, quantized to data[1]/255
//	data[2]       worker count (1..8) and batch-vs-scalar (high bit)
//	data[3]       GTB window
//	data[4]       flags: bit0 = the ratio changes at wave boundaries;
//	              bit1 = every third task carries no approximate body
//	              (approximate decisions on it are task drops)
//	data[5:]      the task stream: 255 is a taskwait boundary (followed,
//	              when ratio changes are enabled, by one byte of new
//	              ratio); any other byte v is a task of significance v/254
//	              — so the stream can position the special values 0.0 and
//	              1.0 and the wave cuts adversarially.
//
// When the ratio changes mid-stream the provided-ratio floor is not a
// well-defined single number, so those runs check conservation, the
// special-value contracts and Wait sanity only; constant-ratio runs check
// the full invariant set.
func FuzzPolicyDecisions(f *testing.F) {
	// Seeds from the property-test corpus: the nine-level cycle, constant
	// significance, bimodal extremes, specials-heavy streams, adversarial
	// wave cuts and a mid-stream ratio flip.
	nineLevels := []byte{0, 128, 3, 16, 0}
	for i := 0; i < 90; i++ {
		nineLevels = append(nineLevels, byte(25*(i%9+1)))
	}
	f.Add(nineLevels)
	f.Add([]byte{1, 85, 2, 0, 0, 127, 127, 127, 255, 127, 127, 127, 127})
	f.Add([]byte{2, 200, 132, 32, 0, 10, 240, 10, 240, 10, 240, 10, 240, 10, 240})
	f.Add([]byte{3, 64, 4, 8, 0, 0, 254, 0, 254, 0, 254, 127})
	f.Add([]byte{0, 255, 1, 1, 0, 255, 1, 255, 2, 255, 3, 255})
	f.Add([]byte{1, 25, 7, 64, 1, 200, 200, 200, 255, 230, 50, 50, 50, 255, 10, 100, 100})
	f.Add([]byte{2, 85, 130, 16, 2, 127, 0, 254, 127, 60, 255, 60, 127, 0, 200})

	kinds := []PolicyKind{PolicyGTB, PolicyGTBMaxBuffer, PolicyLQH, PolicyPerforation}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		kind := kinds[int(data[0])%len(kinds)]
		ratio := float64(data[1]) / 255
		workers := 1 + int(data[2]&0x7f)%8
		batch := data[2]&0x80 != 0
		param := int(data[3]) % 64
		ratioChanges := data[4]&1 != 0
		noApprox := 0
		if data[4]&2 != 0 {
			noApprox = 3
		}
		stream := data[5:]
		if len(stream) > 2048 {
			stream = stream[:2048]
		}

		rt, err := New(Config{Workers: workers, Policy: kind, GTBWindow: param})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		g := rt.Group("fuzz", ratio)

		var sigs []float64
		var ranAcc, ranApx []bool
		waves := 1
		provided := math.NaN()
		flush := func(pending []TaskSpec) {
			if len(pending) == 0 {
				return
			}
			if batch {
				rt.SubmitBatch(g, pending)
				return
			}
			for _, sp := range pending {
				s := sp.Significance
				if s < 0 {
					s = 0
				}
				rt.Submit(sp.Fn, WithLabel(g), WithSignificance(s),
					WithApprox(sp.Approx), WithCost(10, 1)) // Approx may be nil: a drop
			}
		}
		var pending []TaskSpec
		for pos := 0; pos < len(stream); pos++ {
			v := stream[pos]
			if v == 255 {
				flush(pending)
				pending = pending[:0]
				provided = rt.Wait(g)
				waves++
				if ratioChanges && pos+1 < len(stream) {
					pos++
					g.SetRatio(float64(stream[pos]) / 254)
				}
				continue
			}
			i := len(sigs)
			s := float64(v) / 254
			sigs = append(sigs, s)
			ranAcc = append(ranAcc, false)
			ranApx = append(ranApx, false)
			spec := TaskSpec{
				Fn:           func() { ranAcc[i] = true },
				Significance: s,
				HasCost:      true, CostAccurate: 10, CostApprox: 1,
			}
			if noApprox == 0 || i%noApprox != 0 {
				spec.Approx = func() { ranApx[i] = true }
			}
			if s == 0 {
				spec.Significance = -1 // batch spelling of the special 0.0
			}
			pending = append(pending, spec)
		}
		flush(pending)
		provided = rt.Wait(g)

		st := rt.Stats()
		gs := st.Groups[0]
		sc := invScenario{kind: kind, workers: workers, ratio: ratio, sigs: sigs, batch: batch, waves: waves, noApprox: noApprox}
		out := invOutcome{ranAcc: ranAcc, ranApx: ranApx}
		if ratioChanges {
			checkConservationAndSpecials(t, sc, out, gs, provided)
		} else {
			checkInvariants(t, sc, out, gs, provided)
		}

		// The GTB rank kernel against a stable sort, on the stream's own
		// significances as one window and on a finer reading of them: a task's
		// byte picks the bin, the next task's the place inside it.
		if n := len(sigs); n > 0 {
			fine := make([]float64, n)
			for i, s := range sigs {
				fine[i] = (math.Floor(s*254) + 0.99*sigs[(i+1)%n]) / rankBins
			}
			rng := rand.New(rand.NewSource(int64(len(data))))
			want := int(math.Round(ratio * float64(n)))
			checkRank(t, "fuzz stream", sigs, want, rng)
			checkRank(t, "fuzz stream, fine", fine, want, rng)
		}
	})
}

// checkConservationAndSpecials is the invariant subset that survives
// mid-stream ratio retargeting: task conservation, the special-significance
// contracts and Wait sanity (everything except the ratio floor, which is
// only defined against a single requested ratio).
func checkConservationAndSpecials(t *testing.T, sc invScenario, out invOutcome, gs GroupStats, provided float64) {
	t.Helper()
	saved := sc
	saved.ratio = 0 // a zero requested ratio makes the floor check vacuous
	checkInvariants(t, saved, out, gs, provided)
}
