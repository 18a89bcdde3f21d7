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

// PaceResult is the outcome of the pace study.
type PaceResult struct {
	TrueMeanMs float64 // mean offered work per wave — the honest cadence
	// Rows are the cadence phase's wave reports, and Pace the cadence in
	// force after each.
	Rows []serve.WaveReport
	Pace []time.Duration

	// Cadence section: ConvergedAt is the first wave (1-based) from which
	// the cadence stays within 25% of TrueMeanMs for the rest of the
	// phase (-1 = never); Converged additionally demands ConvergedAt <= 16.
	ConvergedAt int
	Converged   bool
	FinalPaceMs float64
	MeasuredMs  float64 // MeasuredPeriod at the end of the study

	// Overrun accounting: Overruns (Totals) must equal OverrunsSeen
	// (per-report flags) and WavesRun must equal PaceCalls (the waves the
	// study fired) — every late wave counted, none dropped.
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

// paceRun plays the study on a one-worker server whose request handlers,
// and a probe ahead of every wave's arrivals, advance its clock.
func paceRun() (PaceResult, error) {
	fc := serve.NewFakeClock()
	sc := scenario{
		cfg: serve.Config{
			Workers:    1, // one worker: measured period × workers = admitted work, exactly
			MinRatio:   1, // no quality shedding: backlog pricing is exact at ratio 1
			QueueLimit: 4 * paceBasePerWave,
			WavePeriod: paceWavePeriod,
			WaveBudget: 4 * float64(paceWavePeriod), // the configured guess the pacer must outgrow
		},
		clock:  fc,
		stream: func(i int) serve.Request { return paceRequest(fc, i) },
		// The per-wave overhead probe: near-zero declared cost, fixed wall
		// advance. When the queue is at its limit (the burst's drain) it is
		// shed and that wave runs without its overhead — a fixed-cost loss
		// well inside the one-wave honesty gate.
		probe: &serve.Request{
			Significance: 1.0,
			Handler:      func() { fc.Advance(paceOverhead) },
			CostAccurate: 1000,
		},
	}
	var res PaceResult
	_, err := sc.play(func(r *studyRun) error { return paceSections(r, fc, &res) }, nil)
	return res, err
}

// paceSections plays the study's phases on r: the cadence phase, then the
// burst and its drain, then the bounds priced at the measured period.
func paceSections(r *studyRun, fc *serve.FakeClock, res *PaceResult) error {
	s := r.s
	// Cadence phase: paceBasePerWave arrivals per wave; the wave's true wall is
	// their declared cost plus the fixed overhead the probe injects.
	var offered float64
	for range paceWaves {
		offered += float64(paceOverhead)
		for i := range paceBasePerWave {
			offered += paceCosts[paceClass(r.seq+i)]
		}
		res.Rows = append(res.Rows, r.wave(paceBasePerWave))
		res.Pace = append(res.Pace, s.PacePeriod())
	}
	res.TrueMeanMs = offered / paceWaves / 1e6
	res.ConvergedAt = -1
	for w := len(res.Pace) - 1; w >= 0; w-- {
		if math.Abs(durMs(res.Pace[w])-res.TrueMeanMs) > 0.25*res.TrueMeanMs {
			break
		}
		res.ConvergedAt = w + 1
	}
	res.Converged = res.ConvergedAt > 0 && res.ConvergedAt <= 16

	// Drain the cadence phase's leftovers so the burst below is the whole
	// backlog the RetryAfter hint prices.
	for s.Depth() > 0 {
		r.wave(0)
	}

	// RetryAfter honesty phase: fill the queue to rejection, then measure
	// how long the backlog actually takes to drain in fake time.
	var err error
	for ; err == nil; r.seq++ {
		err = r.submit(r.sc.stream(r.seq), r.seq)
	}
	var oe *serve.OverloadError
	if !errors.As(err, &oe) {
		return fmt.Errorf("pace study burst: want OverloadError, got %w", err)
	}
	effective := max(s.MeasuredPeriod(), s.PacePeriod())
	// The hint is waves × effective period; the same waves at the
	// configured period is what pre-fix code told clients.
	pricedWaves := int64(oe.RetryAfter / effective)
	res.RetryAfterMs = durMs(oe.RetryAfter)
	res.RetryBeforeMs = durMs(time.Duration(pricedWaves) * paceWavePeriod)
	oneWave := s.MeasuredPeriod()
	start := fc.Now()
	for s.Depth() > 0 {
		r.wave(0)
	}
	drain := fc.Now().Sub(start)
	res.DrainMs = durMs(drain)
	res.RetryErrAfter = math.Abs(res.RetryAfterMs-res.DrainMs) / res.DrainMs
	res.RetryErrBefore = math.Abs(res.RetryBeforeMs-res.DrainMs) / res.DrainMs
	diff := oe.RetryAfter - drain
	res.RetryWithinOneWave = diff <= oneWave && -diff <= oneWave

	res.FinalPaceMs = durMs(s.PacePeriod())
	res.MeasuredMs = durMs(s.MeasuredPeriod())
	shed := time.Duration(adapt.ShedBound(1.0))
	res.ShedBoundMs = durMs(shed * s.MeasuredPeriod())
	res.ShedBoundNominalMs = durMs(shed * paceWavePeriod)
	res.RecoverBoundMs = durMs(time.Duration(adapt.RecoverBound(1.0, 0.4)) * s.MeasuredPeriod())
	tot := s.Totals()
	res.Overruns, res.OverrunsSeen = tot.Overruns, r.overruns
	res.WavesRun, res.PaceCalls = tot.Waves, r.waves
	return nil
}

// durMs renders a duration in fractional milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// PrintPaceStudy renders the study: the per-wave cadence trajectory and the
// summary lines the gating tests read.
func PrintPaceStudy(w io.Writer, r PaceResult) {
	fmt.Fprintf(w, "pace study (base %d req/wave, 4x cost variance, nominal period %.3g ms, true mean wall %.4g ms)\n",
		paceBasePerWave, durMs(paceWavePeriod), r.TrueMeanMs)
	fmt.Fprintf(w, "%-5s %5s %6s %8s %8s %9s %8s\n", "wave", "adm", "depth", "wall ms", "pace ms", "budget k", "overrun")
	for i, row := range r.Rows {
		fmt.Fprintf(w, "%-5d %5d %6d %8.3f %8.3f %9.1f %8v\n",
			i+1, row.Admitted, row.Depth, durMs(row.WallTime), durMs(r.Pace[i]), row.Budget/1000, row.Overrun)
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
