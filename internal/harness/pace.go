package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
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

// PaceStudy prints the measured-time pacing study and fails on a broken
// contract. It plays the study twice, the second time from scratch on a
// fresh fake clock, and fails unless the replay reproduced every wave report,
// total and printed line bit-identically.
func PaceStudy(w io.Writer) error {
	var out [2]bytes.Buffer
	var runs [2]studyLog
	for i := range runs {
		runs[i] = studyLog{w: &out[i], workers: 1}
		if err := paceRun(&runs[i]); err != nil {
			return err
		}
	}
	diff := runs[0].diff(&runs[1])
	if diff == nil && out[0].String() != out[1].String() {
		diff = errors.New("printed output diverged")
	}
	out[0].WriteTo(w)
	fmt.Fprintf(w, "replay: bit-identical: %v\n", diff == nil)
	if diff != nil {
		return fmt.Errorf("pace study: fake-clock replay: %w", diff)
	}
	return nil
}

// paceRun plays the study on a one-worker server whose request handlers,
// and a probe ahead of every wave's arrivals, advance its clock: the
// cadence phase, then the burst and its drain, then the bounds priced at
// the measured period.
func paceRun(l *studyLog) error {
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
	// The honest cadence: the cadence phase's mean offered work per wave, its
	// requests' declared costs plus the probe's overhead, in ms.
	offered := paceWaves * float64(paceOverhead)
	for i := range paceWaves * paceBasePerWave {
		offered += paceCosts[paceClass(i)]
	}
	trueMean := offered / paceWaves / 1e6
	fmt.Fprintf(l.w, "pace study (base %d req/wave, 4x cost variance, nominal period %.3g ms, true mean wall %.4g ms)\n",
		paceBasePerWave, durMs(paceWavePeriod), trueMean)
	var oe *serve.OverloadError
	var effective, oneWave, drain, measured time.Duration
	rows, tot, err := sc.play(l, func(r *studyRun) error {
		s := r.s
		// Cadence phase: paceBasePerWave arrivals per wave; the wave's true
		// wall is their declared cost plus the fixed overhead the probe
		// injects.
		for range paceWaves {
			r.wave(paceBasePerWave)
		}
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
		if !errors.As(err, &oe) {
			return fmt.Errorf("pace study burst: want OverloadError, got %w", err)
		}
		effective, oneWave = max(s.MeasuredPeriod(), s.PacePeriod()), s.MeasuredPeriod()
		start := fc.Now()
		for s.Depth() > 0 {
			r.wave(0)
		}
		drain = fc.Now().Sub(start)
		measured = s.MeasuredPeriod()
		return nil
	}, nil)
	if err != nil {
		return err
	}

	// Cadence: the first wave from which the cadence stays within 25% of the
	// true mean for the rest of the phase (-1 = never); it must be one of
	// the first 16.
	convergedAt := -1
	for w := paceWaves - 1; w >= 0; w-- {
		if math.Abs(durMs(rows[w].pace)-trueMean) > 0.25*trueMean {
			break
		}
		convergedAt = rows[w].Stats.Wave
	}
	converged := convergedAt >= 0 && convergedAt < 16
	// Overruns: every late wave counted, none dropped.
	var overruns int64
	for _, row := range rows {
		if row.Overrun {
			overruns++
		}
	}
	// RetryAfter honesty: the hint is waves × effective period; the same
	// waves at the configured period is what pre-fix code told clients.
	retryAfter, drainMs := durMs(oe.RetryAfter), durMs(drain)
	retryBefore := durMs(time.Duration(int64(oe.RetryAfter/effective)) * paceWavePeriod)
	errAfter := math.Abs(retryAfter-drainMs) / drainMs
	errBefore := math.Abs(retryBefore-drainMs) / drainMs
	diff := oe.RetryAfter - drain
	withinOneWave := diff <= oneWave && -diff <= oneWave
	// Seconds-true SLO bounds: the secant-law reaction bounds (full
	// commanded range, default gains) priced at the measured period vs the
	// configured one — the factor the nominal-period "seconds" were off by.
	shed := time.Duration(adapt.ShedBound(1.0))
	shedMs, shedNominalMs := durMs(shed*measured), durMs(shed*paceWavePeriod)
	recoverMs := durMs(time.Duration(adapt.RecoverBound(1.0, 0.4)) * measured)

	finalPace := durMs(rows[len(rows)-1].pace)
	fmt.Fprintf(l.w, "cadence converged: %v (wave %d, final pace %.4g ms vs true mean %.4g ms, measured EWMA %.4g ms)\n",
		converged, convergedAt, finalPace, trueMean, durMs(measured))
	fmt.Fprintf(l.w, "overruns: %d counted (%d flagged in reports), waves run %d of %d pace calls — 0 dropped ticks\n",
		tot.Overruns, overruns, tot.Waves, len(rows))
	fmt.Fprintf(l.w, "retry-after: measured-period price %.4g ms vs observed drain %.4g ms (within one wave: %v); configured-period price %.4g ms (error %.0f%% -> %.0f%%)\n",
		retryAfter, drainMs, withinOneWave, retryBefore, 100*errBefore, 100*errAfter)
	fmt.Fprintf(l.w, "seconds-true bounds: shed %.4g ms at the measured period (%.4g ms at nominal), recover %.4g ms\n",
		shedMs, shedNominalMs, recoverMs)

	err = errors.Join(
		broken(converged, "cadence did not converge by wave 16: converged at %d, final pace %.4g ms vs true mean %.4g ms",
			convergedAt, finalPace, trueMean),
		broken(tot.Overruns == overruns, "overrun totals %d disagree with per-report flags %d", tot.Overruns, overruns),
		broken(overruns > 0, "never overran: the nominal period is half the true wall time"),
		broken(tot.Waves == int64(len(rows)), "waves run %d != pace calls %d: a tick was silently dropped", tot.Waves, len(rows)),
		broken(withinOneWave, "RetryAfter %.4g ms not within one measured wave (%.4g ms) of drain %.4g ms",
			retryAfter, durMs(oneWave), drainMs),
		broken(errAfter < errBefore, "measured-period pricing error %.3f not below configured-period %.3f", errAfter, errBefore),
		broken(shedMs > shedNominalMs, "measured-period shed bound %.4g ms not above the nominal-period %.4g ms", shedMs, shedNominalMs))
	if err != nil {
		return fmt.Errorf("pace study: %w", err)
	}
	return nil
}

// durMs renders a duration in fractional milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
