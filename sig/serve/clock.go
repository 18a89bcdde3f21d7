package serve

import (
	"sync/atomic"
	"time"
)

// WaveClock is the serving layer's single seam to real time. Every
// time-derived quantity in the package — Submit's deadline checks, ticket
// latency stamps, the per-wave wall-time measurement behind MeasuredPeriod
// and the pacer — flows through one Now per call site, so swapping the
// implementation swaps the package's entire notion of time at once.
//
// The production implementation (the zero Config) is the monotonic wall
// clock; FakeClock is the deterministic stand-in the replay studies and the
// fuzz/invariant suites inject so closed-loop runs — including the measured
// cadence — replay bit-identically.
type WaveClock interface {
	// Now returns the current time. Implementations must be monotone
	// non-decreasing: the pacer and the latency stamps subtract readings.
	Now() time.Time
}

// wallClock is the production WaveClock. Its Now is the package's one real
// clock read; everything else derives from values that passed through here.
type wallClock struct{}

//siglint:noalloc
func (wallClock) Now() time.Time {
	return time.Now() //siglint:wallclock the serving layer's single real-time read: deadlines, latency stamps and the measured-period EWMA all derive from it, never a policy input; replay injects a FakeClock through the same seam
}

// FakeClock is a deterministic WaveClock: time stands still except for
// explicit Advance calls. Studies give request handlers index-derived
// advances (cost(i) nanoseconds for request i), so a wave's measured wall
// time is the exact sum of the work it admitted — pure index arithmetic,
// independent of scheduling, worker count or host speed — and the whole
// measured-time loop (EWMA, pacer cadence, re-derived budget, RetryAfter)
// replays bit-identically.
//
// The offset is one atomic word: concurrent handler advances commute, so
// even racy wave execution yields the same end-of-wave reading. A reading
// taken mid-wave does not: a request that runs a body is stamped when that
// body returns, after however many of its wave's advances the schedule ran
// first, so Ticket.Latency under a FakeClock is schedule-dependent. Studies
// read WaveLatency only.
type FakeClock struct {
	offset atomic.Int64 // nanoseconds since the fixed epoch
}

// NewFakeClock returns a FakeClock at the fixed epoch (Unix time zero).
func NewFakeClock() *FakeClock { return &FakeClock{} }

// Now returns the fake instant: epoch + the accumulated advances.
//
//siglint:noalloc
func (c *FakeClock) Now() time.Time {
	return time.Unix(0, c.offset.Load())
}

// Advance moves the fake clock forward by d (negative d is ignored — a
// WaveClock must never run backwards).
//
//siglint:noalloc
func (c *FakeClock) Advance(d time.Duration) {
	if d > 0 {
		c.offset.Add(int64(d))
	}
}
