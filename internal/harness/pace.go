package harness

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"repro/sig/adapt"
	"repro/sig/serve"
)

// PaceStudy measures the serving layer's measured-time loop against its
// contracts: the pacer's cadence converges to the true mean wave wall time
// (not the configured guess), every overrun is counted (the wave count
// tracks pace calls exactly — no silently coalesced ticks), the wave
// budget is re-derived from the measured period, and the queue-full
// RetryAfter hint — priced in measured-period units — lands within one
// wave of the observed fake-clock drain time. The whole study runs on a
// serve.FakeClock: request handlers advance it by their declared cost
// (index arithmetic), so wall time is exactly the work admitted and two
// runs are bit-identical.

// paceCosts are the four declared cost classes (nanoseconds of work) the
// study's traffic cycles through — a 4x cost variance, the regime the
// paper's variable-cost kernels put the server in.
var paceCosts = [4]float64{50_000, 100_000, 150_000, 200_000}

// paceOverhead is the fixed per-wave wall overhead (ns) the declared costs
// don't capture — the task-launch/teardown time every wave pays regardless
// of its batch. It is what pushes the true wave wall above the sum of
// declared work, so a pacer trusting the configured period alone is wrong
// by a constant factor; the measured budget settles at offered+overhead,
// which is also what keeps the admission queue bounded.
const paceOverhead = 250 * time.Microsecond

const (
	// paceBasePerWave is the per-wave arrival count, and paceWaves the
	// cadence phase's length.
	paceBasePerWave = 8
	paceWaves       = 24
	// paceWavePeriod is the deliberately wrong configured period the pacer
	// must correct away from: half the true mean wall.
	paceWavePeriod = 500 * time.Microsecond
)

// PaceWaveRow is one paced wave's trajectory sample.
type PaceWaveRow struct {
	Wave     int
	Admitted int
	Depth    int
	WallMs   float64
	PaceMs   float64
	BudgetK  float64 // modeled capacity after the wave, in kilo-cost-units
	Overrun  bool
}

// PaceResult is the outcome of the pace study.
type PaceResult struct {
	TrueMeanMs float64 // mean offered work per wave — the honest cadence
	Rows       []PaceWaveRow

	// Cadence section: ConvergedAt is the first wave (1-based) from which
	// the cadence stays within 25% of TrueMeanMs for the rest of the
	// phase (-1 = never); Converged additionally demands ConvergedAt <= 16.
	ConvergedAt int
	Converged   bool
	FinalPaceMs float64
	MeasuredMs  float64 // MeasuredPeriod at the end of the study

	// Overrun accounting: Overruns (Totals) must equal OverrunsSeen
	// (per-report flags) and WavesRun must equal PaceCalls — every late
	// wave counted, none dropped.
	Overruns     int64
	OverrunsSeen int64
	WavesRun     int64
	PaceCalls    int64

	// Seconds-true SLO bounds: the secant-law reaction bounds (full
	// commanded range, default gains) priced at the measured period vs the
	// configured one — the factor the nominal-period "seconds" were off by.
	ShedBoundMs        float64
	ShedBoundNominalMs float64
	RecoverBoundMs     float64

	// RetryAfter honesty: the measured-period hint vs the observed
	// fake-clock drain of the backlog it priced, and the configured-period
	// price pre-fix code would have returned for the same waves.
	RetryAfterMs       float64
	DrainMs            float64
	RetryBeforeMs      float64
	RetryErrAfter      float64 // |RetryAfter−Drain|/Drain
	RetryErrBefore     float64
	RetryWithinOneWave bool

	// ReplayIdentical: the whole study, re-run from scratch on a fresh
	// fake clock, reproduced every number above bit-identically.
	ReplayIdentical bool
}

// paceClass picks request i's cost class: a multiplicative hash over the
// request index, so the per-wave class mix varies wave to wave (the cost
// variance the pacer must average over) while staying pure index
// arithmetic.
func paceClass(i int) int {
	return int((uint32(i) * 2654435761) >> 30)
}

// paceRequest is the i-th study request: premium significance (quality
// shedding is the other studies' subject — here outcomes must not change
// the work), declared cost by class, and a handler advancing the fake
// clock by exactly that cost.
func paceRequest(fc *serve.FakeClock, i int) serve.Request {
	cost := paceCosts[paceClass(i)]
	return serve.Request{
		Significance: 1.0,
		Handler:      func() { fc.Advance(time.Duration(cost)) },
		CostAccurate: cost,
	}
}

// PaceStudy runs the measured-time pacing study twice and verifies the
// second run reproduces the first bit-identically (ReplayIdentical).
func PaceStudy() (PaceResult, error) {
	res, err := paceRun()
	if err != nil {
		return res, err
	}
	replay, err := paceRun()
	if err != nil {
		return res, err
	}
	res.ReplayIdentical = reflect.DeepEqual(res, replay)
	return res, nil
}

func paceRun() (PaceResult, error) {
	fc := serve.NewFakeClock()
	s, err := serve.New(serve.Config{
		Workers:    1, // one worker: measured period × workers = admitted work, exactly
		MinRatio:   1, // no quality shedding: backlog pricing is exact at ratio 1
		QueueLimit: 4 * paceBasePerWave,
		WavePeriod: paceWavePeriod,
		WaveBudget: 4 * float64(paceWavePeriod), // the configured guess the pacer must outgrow
		Clock:      fc,
	})
	if err != nil {
		return PaceResult{}, err
	}
	defer s.Close() // on an error path; a run that succeeds ends in r.close
	r := &studyRun{
		s:     s,
		next:  func(i int) serve.Request { return paceRequest(fc, i) },
		clock: fc, // the pump's sleep, in fake time
	}
	// The per-wave overhead probe: near-zero declared cost, fixed wall
	// advance.
	probe := serve.Request{
		Significance: 1.0,
		Handler:      func() { fc.Advance(paceOverhead) },
		CostAccurate: 1000,
	}

	var res PaceResult
	wave := func(arrivals int) serve.WaveReport {
		// When the queue is at its limit (the burst's drain) the probe is
		// shed and that wave runs without its overhead — a fixed-cost loss
		// well inside the one-wave honesty gate.
		_ = r.submit(probe, -1)
		rep := r.wave(arrivals)
		res.PaceCalls++
		if rep.Overrun {
			res.OverrunsSeen++
		}
		return rep
	}

	// Cadence phase: paceBasePerWave arrivals per wave; the wave's true wall is
	// their declared cost plus the fixed overhead the probe injects.
	var offered float64
	for w := range paceWaves {
		offered += float64(paceOverhead)
		for i := range paceBasePerWave {
			offered += paceCosts[paceClass(r.seq+i)]
		}
		rep := wave(paceBasePerWave)
		res.Rows = append(res.Rows, PaceWaveRow{
			Wave:     w + 1,
			Admitted: rep.Admitted,
			Depth:    rep.Depth,
			WallMs:   durMs(rep.WallTime),
			PaceMs:   durMs(s.PacePeriod()),
			BudgetK:  rep.Budget / 1000,
			Overrun:  rep.Overrun,
		})
	}
	res.TrueMeanMs = offered / paceWaves / 1e6
	res.ConvergedAt = -1
	for w := len(res.Rows) - 1; w >= 0; w-- {
		if math.Abs(res.Rows[w].PaceMs-res.TrueMeanMs) > 0.25*res.TrueMeanMs {
			break
		}
		res.ConvergedAt = w + 1
	}
	res.Converged = res.ConvergedAt > 0 && res.ConvergedAt <= 16

	// Drain the cadence phase's leftovers so the burst below is the whole
	// backlog the RetryAfter hint prices.
	for s.Depth() > 0 {
		wave(0)
	}

	// RetryAfter honesty phase: fill the queue to rejection, then measure
	// how long the backlog actually takes to drain in fake time.
	var oe *serve.OverloadError
	for {
		err := r.submit(r.next(r.seq), r.seq)
		if err == nil {
			r.seq++
			continue
		}
		if !errors.As(err, &oe) {
			return res, fmt.Errorf("pace study burst: want OverloadError, got %w", err)
		}
		break
	}
	effective := s.MeasuredPeriod()
	if p := s.PacePeriod(); p > effective {
		effective = p
	}
	// The hint is waves × effective period; the same waves at the
	// configured period is what pre-fix code told clients.
	pricedWaves := int64(oe.RetryAfter / effective)
	res.RetryAfterMs = durMs(oe.RetryAfter)
	res.RetryBeforeMs = durMs(time.Duration(pricedWaves) * paceWavePeriod)
	oneWave := s.MeasuredPeriod()
	start := fc.Now()
	for s.Depth() > 0 {
		wave(0)
	}
	drain := fc.Now().Sub(start)
	res.DrainMs = durMs(drain)
	res.RetryErrAfter = math.Abs(res.RetryAfterMs-res.DrainMs) / res.DrainMs
	res.RetryErrBefore = math.Abs(res.RetryBeforeMs-res.DrainMs) / res.DrainMs
	if diff := oe.RetryAfter - drain; diff <= oneWave && -diff <= oneWave {
		res.RetryWithinOneWave = true
	}

	res.FinalPaceMs = durMs(s.PacePeriod())
	res.MeasuredMs = durMs(s.MeasuredPeriod())
	res.ShedBoundMs = durMs(adapt.ShedBoundSeconds(1.0, adapt.DefaultMaxStep, s.MeasuredPeriod()))
	res.ShedBoundNominalMs = durMs(adapt.ShedBoundSeconds(1.0, adapt.DefaultMaxStep, paceWavePeriod))
	res.RecoverBoundMs = durMs(adapt.RecoverBoundSeconds(1.0, adapt.DefaultGain, adapt.DefaultMaxStep, 0.4, s.MeasuredPeriod()))
	tot := s.Totals()
	res.Overruns = tot.Overruns
	res.WavesRun = tot.Waves
	return res, r.close(func(int, int) {})
}

// durMs renders a duration in fractional milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// PrintPaceStudy renders the study: the per-wave cadence trajectory and the
// summary lines the gating tests read.
func PrintPaceStudy(w io.Writer, r PaceResult) {
	fmt.Fprintf(w, "pace study (base %d req/wave, 4x cost variance, nominal period %.3g ms, true mean wall %.4g ms)\n",
		paceBasePerWave, durMs(paceWavePeriod), r.TrueMeanMs)
	fmt.Fprintf(w, "%-5s %5s %6s %8s %8s %9s %8s\n", "wave", "adm", "depth", "wall ms", "pace ms", "budget k", "overrun")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-5d %5d %6d %8.3f %8.3f %9.1f %8v\n",
			row.Wave, row.Admitted, row.Depth, row.WallMs, row.PaceMs, row.BudgetK, row.Overrun)
	}
	fmt.Fprintf(w, "cadence converged: %v (wave %d, final pace %.4g ms vs true mean %.4g ms, measured EWMA %.4g ms)\n",
		r.Converged, r.ConvergedAt, r.FinalPaceMs, r.TrueMeanMs, r.MeasuredMs)
	fmt.Fprintf(w, "overruns: %d counted (%d flagged in reports), waves run %d of %d pace calls — 0 dropped ticks\n",
		r.Overruns, r.OverrunsSeen, r.WavesRun, r.PaceCalls)
	fmt.Fprintf(w, "retry-after: measured-period price %.4g ms vs observed drain %.4g ms (within one wave: %v); configured-period price %.4g ms (error %.0f%% -> %.0f%%)\n",
		r.RetryAfterMs, r.DrainMs, r.RetryWithinOneWave, r.RetryBeforeMs, 100*r.RetryErrBefore, 100*r.RetryErrAfter)
	fmt.Fprintf(w, "seconds-true bounds: shed %.4g ms at the measured period (%.4g ms at nominal), recover %.4g ms\n",
		r.ShedBoundMs, r.ShedBoundNominalMs, r.RecoverBoundMs)
	fmt.Fprintf(w, "replay: bit-identical: %v\n", r.ReplayIdentical)
}
