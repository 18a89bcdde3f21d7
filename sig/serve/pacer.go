package serve

import (
	"sync/atomic"
	"time"
)

// Pacer tuning. The measured-period EWMA folds 1/periodAlphaInv of every
// new wall-time sample in (bounded memory, geometric horizon); the pacer
// only retimes when the clamped EWMA has moved more than
// 1/paceHysteresisInv off the current cadence; MinPeriod and MaxPeriod
// default to WavePeriod/minPeriodDiv and maxPeriodMult×WavePeriod.
const (
	periodAlphaInv    = 4
	paceHysteresisInv = 10
	minPeriodDiv      = 4
	maxPeriodMult     = 8
)

// pacer is everything that decides when a wave fires and what interval it
// is priced on: the cadence and its [lo, hi] clamp, the measured-period
// EWMA, the early-wave token and the load carry an early wave needs, the
// overrun and early counters, and the measured per-shard budget price.
// Server keeps no pacing state of its own and calls in at three points:
// Submit's tail (idleArrival), a wave's begin and end with the load
// signal's carry between them and its settle and perShard after, and the
// pump loop that fires waves (run).
//
// begin, end, carry and settle run under Server.waveMu, one wave at a time,
// so measuredNs and paceNs have a single writer and are stored plainly; they
// are atomics for their lock-free readers — Submit's RetryAfter pricing,
// MeasuredPeriod, PacePeriod, the metrics.
type pacer struct {
	lo, hi  int64 // Config.MinPeriod and MaxPeriod, the cadence clamp
	workers int   // resolved per-shard worker pool, the factor every budget derivation shares

	measuredNs atomic.Int64 // bounded EWMA of wave wall time; 0 until the first wave measures
	paceNs     atomic.Int64 // the current cadence
	overruns   atomic.Int64 // waves that outran the cadence that fired them
	earlyWaves atomic.Int64 // waves fired by a wake token

	// wake is the 1-slot channel on which an idle arrival tells the pump to
	// fire its wave now. early marks the wave in flight as one fired that way
	// and lastEnd is the previous wave's end — together what carry needs to
	// price a wave that covers less than a period (both guarded by waveMu).
	wake    chan struct{}
	early   bool
	lastEnd time.Time
}

// init sets the pacer to the configured cadence; cfg has its defaults
// resolved and workers is the per-shard pool.
func (p *pacer) init(cfg *Config, workers int) {
	p.lo, p.hi, p.workers = int64(cfg.MinPeriod), int64(cfg.MaxPeriod), workers
	p.paceNs.Store(int64(cfg.WavePeriod))
	p.wake = make(chan struct{}, 1)
}

// period is the cadence in force: the configured WavePeriod until settle
// retimes it.
func (p *pacer) period() time.Duration { return time.Duration(p.paceNs.Load()) }

// effective is the honest wall-time price of one wave: the measured EWMA,
// floored at the current cadence (the configured WavePeriod until the pacer
// retimes) — a queued request can't be reached faster than waves fire, and
// an overrunning wave takes as long as it measures.
//
//siglint:noalloc
func (p *pacer) effective() time.Duration {
	return time.Duration(max(p.paceNs.Load(), p.measuredNs.Load()))
}

// perShard is the measured per-shard wave budget: what one wave can actually
// absorb is the wall time a wave occupies times the workers executing it,
// not the configured guess. (Cost units are ~1ns of work, so period
// nanoseconds × workers is directly a cost budget.)
func (p *pacer) perShard() float64 { return float64(p.workers) * float64(p.effective()) }

// idleArrival is Submit's tail for the request that ends an idle spell. The
// cadence is a batching window, and batching only buys a better significance
// ranking. At ratio 1.0 nothing is shed, so there is nothing to rank: the
// arrival wakes the pump instead of waiting the cadence out. The send never
// blocks — a token already pending (or no pump at all) means the slot is
// simply left as it is.
//
//siglint:noalloc
func (p *pacer) idleArrival(ratio float64) {
	if ratio >= 1 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// begin opens a wave; early marks — and counts — one the pump fired on a
// token rather than on its timer (see carry).
func (p *pacer) begin(early bool) {
	if p.early = early; early {
		p.earlyWaves.Add(1)
	}
}

// carry is the weight the previous load reading keeps in this wave's
// sample, read at the wave boundary. A cadence wave spans the period the
// budget prices and carries nothing. An early wave covers less: its own
// sample is demand ÷ (workers × the interval since the last wave ended —
// never less than its wall so far, since waves serialize), and it speaks for
// only that share of the one-period horizon every cadence sample spans. The
// rest of the horizon keeps the previous reading, so the signal still means
// "demand over capacity across a period" and a burst of back-to-back waves
// cannot read as overload.
func (p *pacer) carry(clock WaveClock) float64 {
	if !p.early {
		return 0
	}
	share := float64(clock.Now().Sub(p.lastEnd)) / float64(p.effective())
	return max(1-share, 0)
}

// end closes a wave that ended at now after wall of admission and taskwait:
// wall is folded into the EWMA behind MeasuredPeriod (α = 1/periodAlphaInv:
// bounded memory, geometric horizon) — the pacer's cadence target and the
// honest RetryAfter price. Samples are floored at 1ns so a measured wave is
// never mistaken for the zero "no measurement yet" sentinel.
func (p *pacer) end(now time.Time, wall time.Duration) {
	p.lastEnd = now
	w := max(int64(wall), 1)
	if old := p.measuredNs.Load(); old != 0 {
		w = max(old+(w-old)/periodAlphaInv, 1)
	}
	p.measuredNs.Store(w)
}

// settle closes every wave, after end, given its wall time: it counts
// an overrun when the wave outran the cadence that fired it, moves the
// cadence toward the measured EWMA, clamped into [lo, hi], with
// 1/paceHysteresisInv relative hysteresis so measurement jitter doesn't
// wobble the timer, and returns the delay until the next wave is due — zero
// after an overrun: the wave ran and the next one follows immediately,
// never a dropped tick.
func (p *pacer) settle(wall time.Duration) (overrun bool, delay time.Duration) {
	cur := p.paceNs.Load()
	if overrun = int64(wall) > cur; overrun {
		p.overruns.Add(1)
	}
	if target := p.measuredNs.Load(); target != 0 { // zero: nothing measured yet
		target = min(max(target, p.lo), p.hi)
		if diff := target - cur; diff > cur/paceHysteresisInv || diff < -cur/paceHysteresisInv {
			p.paceNs.Store(target)
			cur = target
		}
	}
	return overrun, max(time.Duration(cur)-wall, 0)
}

// run is the pump: it hands wait each delay, the cadence first and then
// what the last wave returned, and fires wave(early) when wait returns —
// early on a wake token (tokens posted during a wave make the next one
// back-to-back, so batches grow with load on their own) — until wait
// reports !ok. Start's wait is timerWait; a test's can run in fake time.
func (p *pacer) run(wait func(delay time.Duration) (early, ok bool), wave func(early bool) time.Duration) {
	for delay := p.period(); ; {
		early, ok := wait(delay)
		if !ok {
			return
		}
		delay = wave(early)
	}
}

// timerWait is the pump's real-time wait: one timer, re-armed for each
// delay, raced against the wake token and stop.
func (p *pacer) timerWait(stop <-chan struct{}) func(time.Duration) (early, ok bool) {
	timer := time.NewTimer(p.period())
	return func(delay time.Duration) (early, ok bool) {
		timer.Reset(delay) // discards a tick that expired during an early wave
		select {
		case <-stop:
			return false, false
		case <-p.wake:
			return true, true
		case <-timer.C:
			return false, true
		}
	}
}
