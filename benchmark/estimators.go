package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
// An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quietDecile is the estimator for raw-second metrics on a shared host: the
// window is cut into segments, the statistic is computed per segment, and the
// decile of segments on the *good* side is reported — the 10th percentile for
// lower-is-better values, the 90th for rates. A neighbour stealing the CPU for
// a few seconds inflates some segments and leaves the quiet ones alone, so
// the quiet decile repeats where the whole-window median does not.
func quietDecile(perSegment []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(perSegment, 0.10)
	}
	return quantile(perSegment, 0.90)
}

// segments groups timestamped samples into fixed-width slices of the timed
// window. Samples before the window start or at/after its end are ignored, so
// every segment spans exactly width.
type segments struct {
	start time.Time
	width time.Duration
	vals  [][]float64
}

// newSegments cuts window into slices of width, or into four when the window
// is too short for that (the smoke runs).
func newSegments(start time.Time, window, width time.Duration) *segments {
	width = min(width, window/4)
	return &segments{start: start, width: width, vals: make([][]float64, int(window/width))}
}

// index returns the segment t falls into, or -1 outside the window.
func (s *segments) index(t time.Time) int {
	d := t.Sub(s.start)
	if d < 0 {
		return -1
	}
	i := int(d / s.width)
	if i >= len(s.vals) {
		return -1
	}
	return i
}

func (s *segments) add(t time.Time, v float64) {
	if i := s.index(t); i >= 0 {
		s.vals[i] = append(s.vals[i], v)
	}
}

// medians returns the per-segment median of every non-empty segment.
func (s *segments) medians() []float64 {
	var out []float64
	for _, v := range s.vals {
		if len(v) > 0 {
			out = append(out, median(v))
		}
	}
	return out
}

// rates returns samples per second for every segment.
func (s *segments) rates() []float64 {
	out := make([]float64, len(s.vals))
	for i, v := range s.vals {
		out[i] = float64(len(v)) / s.width.Seconds()
	}
	return out
}

// throughputs returns, for every non-empty segment whose samples are each the
// time one batch of ops took, ops per second of that time.
func (s *segments) throughputs(ops float64) []float64 {
	var out []float64
	for _, v := range s.vals {
		if len(v) > 0 {
			out = append(out, ops/mean(v))
		}
	}
	return out
}

// bareRatio is the estimator for CPU-bound metrics: the cost of a block run
// through the stack over the cost of the same bodies run bare immediately
// before it. Both sides of a pair share one ≤1 s slice of host weather, so the
// host's speed cancels in the pair's ratio; the median over the window's pairs
// then drops the pairs a hiccup hit on one side only (a ~3 ms bare loop and a
// ~40 ms stack block do not always share a descheduling).
type bareRatio struct{ stack, bare []float64 }

func (r *bareRatio) add(stack, bare float64) {
	r.stack = append(r.stack, stack)
	r.bare = append(r.bare, bare)
}

// value is the median of stack ÷ bare over the pairs (overhead direction);
// its reciprocal is the speed-up. NaN before any pair.
func (r bareRatio) value() float64 {
	ratios := make([]float64, len(r.stack))
	for i := range ratios {
		ratios[i] = r.stack[i] / r.bare[i]
	}
	return median(ratios)
}

// combine is the ratio of several groups of pairs (variants, apps) taken
// together: each group's median ratio weighted by its median bare cost —
// what Σ stack ÷ Σ bare would be if every pair were a typical one. Costs add
// across groups, so the weights are costs, not counts.
func combine(groups []*bareRatio) float64 {
	var num, den float64
	for _, g := range groups {
		w := median(g.bare)
		num += w * g.value()
		den += w
	}
	return num / den
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), which is what the benchmark contract's spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}
