package serve

import (
	"sync/atomic"
	"time"
)

// Pacer tuning. The measured-period EWMA folds 1/periodAlphaInv of every
// new wall-time sample in (bounded memory, geometric horizon); MinPeriod
// defaults to WavePeriod/minPeriodDiv, and the cadence ceiling is
// maxPeriodMult×WavePeriod.
const (
	periodAlphaInv = 4
	minPeriodDiv   = 4
	maxPeriodMult  = 8
)

// pacer is everything that decides when a wave fires and what interval it
// is priced on. It stores two facts its waves record, the wall-time EWMA and
// the last wave's start, and derives the rest from them: the cadence
// (period, the EWMA clamped into [lo, hi]), the due time (the start plus the
// cadence) and the wave budget (price). Beside them it keeps the wake token
// and the load carry an early wave needs, and the overrun and early
// counters. Server keeps no pacing state of its own and calls in at three
// points: Submit's tail (arrival), a wave's begin and end with the load
// signal's carry between them, and the pump loop that fires waves (run).
// Whether an arrival fires a wave, whether a wave is early and when the pump
// wakes are one pure step's, next.
//
// begin, carry and end run under Server.waveMu, one wave at a time, so
// measuredNs and startNs have a single writer; they are atomics for their
// lock-free readers — Submit's due check and RetryAfter pricing, admit and
// measure's budget, Budget, MeasuredPeriod, PacePeriod, the metrics.
type pacer struct {
	lo, hi      int64   // Config.MinPeriod and maxPeriodMult×WavePeriod, the cadence clamp
	first       int64   // Config.WavePeriod, the cadence before the first wave measures
	firstBudget float64 // Config.WaveBudget, the price before the first wave measures
	workers     int     // resolved worker pool, the factor every budget derivation shares

	measuredNs atomic.Int64 // bounded EWMA of wave wall time; 0 until the first wave measures
	startNs    atomic.Int64 // the last wave's start in WaveClock nanoseconds; New's clock reading before the first
	overruns   atomic.Int64 // waves that outran the cadence that fired them
	earlyWaves atomic.Int64 // token waves that started before they were due

	// wake is the 1-slot channel on which an arrival tells the pump to fire
	// its wave now. early marks the wave in flight as one fired that way
	// before it was due, and lastEnd is the previous wave's end — together
	// what carry needs to price a wave that covers less than a period (both
	// guarded by waveMu).
	wake    chan struct{}
	early   bool
	lastEnd time.Time
}

// init sets the pacer to the configured cadence and budget, with the first
// wave due one WavePeriod after now; cfg has its defaults resolved and
// workers is the resolved pool.
func (p *pacer) init(cfg *Config, workers int, now time.Time) {
	p.lo, p.hi, p.workers = int64(cfg.MinPeriod), maxPeriodMult*int64(cfg.WavePeriod), workers
	p.first, p.firstBudget = int64(cfg.WavePeriod), cfg.WaveBudget
	p.startNs.Store(now.UnixNano())
	p.wake = make(chan struct{}, 1)
}

// period is the cadence: the measured EWMA clamped into [lo, hi], or the
// configured WavePeriod before the first wave measures.
//
//siglint:noalloc
func (p *pacer) period() time.Duration {
	if m := p.measuredNs.Load(); m != 0 {
		return time.Duration(min(max(m, p.lo), p.hi))
	}
	return time.Duration(p.first)
}

// due is when the next wave is due, in WaveClock nanoseconds: one cadence
// after the last wave started. No arrival during a wave finds the next one
// due unless the wave overruns its cadence, and an overrun's successor is
// due the moment it ends — never a dropped tick.
//
//siglint:noalloc
func (p *pacer) due() int64 { return p.startNs.Load() + int64(p.period()) }

// effective is the honest wall-time price of one wave: the measured EWMA,
// floored at the cadence (the configured WavePeriod before the first wave
// measures) — a queued request can't be reached faster than waves fire, and
// an overrunning wave takes as long as it measures.
//
//siglint:noalloc
func (p *pacer) effective() time.Duration {
	return max(p.period(), time.Duration(p.measuredNs.Load()))
}

// price is the wave budget: what one wave can actually absorb is the wall
// time a wave occupies times the workers executing it, not the configured
// guess, which prices only the waves before the first measurement. (Cost
// units are ~1ns of work, so period nanoseconds × workers is directly a cost
// budget.) It is admit's cut-off, the load signal's denominator and
// RetryAfter's wave size.
//
//siglint:noalloc
func (p *pacer) price() float64 {
	if p.measuredNs.Load() == 0 {
		return p.firstBudget
	}
	return float64(p.workers) * float64(p.effective())
}

// arrival is Submit's step, under Server.mu, for every request it queues;
// wake says the request ends an idle spell at ratio 1.0. The cadence is a
// batching window, and batching only buys a better significance ranking: at
// ratio 1.0 nothing is shed, so such an arrival wakes the pump the way a
// token does instead of waiting the cadence out. Any other arrival fires a
// wave only when next finds it due — whatever the ratio, instead of leaving
// it to the pump's timer, which fires late. The wave it fires starts at or
// after its due time, so it is a cadence wave: due waves never start closer
// together than one cadence, and the batching window is what it was.
//
//siglint:noalloc
func (p *pacer) arrival(now time.Time, wake bool) {
	if fire, _, _ := p.next(now, wake); fire {
		p.post()
	}
}

// next is the due rule, and its one home: at now, with token set when a wake
// token woke the pump, a wave fires if a token woke it or the wave is due
// (now at or past due), and is early if a token fires it before it is due;
// whatever fires now, the pump's timer is for wakeAt, the due time. next
// reads the pacer and changes nothing. begin reads early, arrival fire, and
// the pump's loop (run) wakeAt, whichever wait it runs on: Start's timer or
// FakeClock.Run's discrete-event wait.
//
//siglint:noalloc
func (p *pacer) next(now time.Time, token bool) (fire, early bool, wakeAt time.Time) {
	due := p.due()
	early = token && now.UnixNano() < due
	return token || now.UnixNano() >= due, early, time.Unix(0, due)
}

// post leaves the wake token for the pump. The send never blocks: a token
// already pending (or no pump at all) means the slot is left as it is.
//
//siglint:noalloc
func (p *pacer) post() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// spend is admit's, under Server.mu after it pops: a token pending now was
// posted by an arrival this wave already found queued, so it is taken back —
// left behind, it would fire a spare wave right after this one. A token an
// arrival posts after admit releases the lock stays, and makes the next wave
// back-to-back.
//
//siglint:noalloc
func (p *pacer) spend() {
	select {
	case <-p.wake:
	default:
	}
}

// begin opens a wave that starts at start; token says the pump fired it on
// a wake token. A token wave that next calls early is marked — and counted —
// early (see carry); any other wave is a cadence wave, whoever fired it. The
// next wave is then due one cadence after this one's start.
func (p *pacer) begin(start time.Time, token bool) {
	if _, p.early, _ = p.next(start, token); p.early {
		p.earlyWaves.Add(1)
	}
	p.startNs.Store(start.UnixNano())
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

// end closes a wave that ended at now after wall of admission and taskwait.
// It counts an overrun when the wave outran the cadence that fired it, the
// one in force before this sample, and returns it; after an overrun the next
// wave is already due. It then folds wall into the EWMA behind
// MeasuredPeriod (α = 1/periodAlphaInv: bounded memory, geometric horizon),
// which moves the cadence, the due time and the price with it. Samples are
// floored at 1ns so a measured wave is never mistaken for the zero "no
// measurement yet" sentinel.
func (p *pacer) end(now time.Time, wall time.Duration) (overrun bool) {
	p.lastEnd = now
	if overrun = wall > p.period(); overrun {
		p.overruns.Add(1)
	}
	w := max(int64(wall), 1)
	if old := p.measuredNs.Load(); old != 0 {
		w = max(old+(w-old)/periodAlphaInv, 1)
	}
	p.measuredNs.Store(w)
	return overrun
}

// run is the pump, one loop over a wait and next: wait returns at wakeAt or
// on a wake token (token), until it reports !ok, and every return fires
// wave(token); the loop then waits for next's wakeAt (the first wave's is one
// cadence after the loop starts). A token posted during a wave makes the next
// one back-to-back, so batches grow with load on their own, and a timer that
// fires early — a wall clock stepped back under a monotonic timer — still
// fires its wave, whose begin moves the due time onto the clock it reads.
func (p *pacer) run(clock WaveClock, wait func(wakeAt time.Time) (token, ok bool), wave func(token bool)) {
	for wakeAt := clock.Now().Add(p.period()); ; {
		token, ok := wait(wakeAt)
		if !ok {
			return
		}
		wave(token)
		_, _, wakeAt = p.next(clock.Now(), false)
	}
}

// timerWait is Start's wait: one real timer, re-armed for each wakeAt, raced
// against the wake token and stop.
func (p *pacer) timerWait(clock WaveClock, stop <-chan struct{}) func(wakeAt time.Time) (token, ok bool) {
	timer := time.NewTimer(p.period())
	return func(wakeAt time.Time) (token, ok bool) {
		timer.Reset(wakeAt.Sub(clock.Now())) // discards a tick that expired during a token wave
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
