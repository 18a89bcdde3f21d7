package sig

import (
	"math"
	"testing"
	"time"
)

// WaveStats.Merge is the arithmetic behind every wave account, a runtime's
// and a sig/shard Router's merged one. These pin the edge most easily got
// wrong — an account that decided nothing provides its requested ratio — and
// the rule that floats are derived from integer sums, never added.

func TestWaveMergeEmptyProvidesRequested(t *testing.T) {
	w := WaveStats{Wave: 7, RequestedRatio: 0.3}
	w.Merge(WaveStats{})
	if w.ProvidedRatio != 0.3 || w.Joules != 0 || w.Wave != 7 {
		t.Fatalf("empty wave merged to %+v, want provided 0.3, 0 J, wave 7", w)
	}
	// Submitted but undecided (a wedged shard's cut) is still nothing decided.
	w.Merge(WaveStats{Submitted: 4, RequestedRatio: 0.9, ProvidedRatio: 0.9})
	if w.ProvidedRatio != 0.3 || w.RequestedRatio != 0.3 || w.Submitted != 4 {
		t.Fatalf("undecided wave merged to %+v, want provided and requested 0.3", w)
	}
	w.Merge(WaveStats{Accurate: 1, Approximate: 2, Dropped: 1})
	if w.ProvidedRatio != 0.25 {
		t.Fatalf("provided %v after 1 accurate of 4 decided, want 0.25", w.ProvidedRatio)
	}
}

func TestWaveMergePricesTheIntegerSum(t *testing.T) {
	// Three cuts whose float joules do not add exactly; the merge must equal
	// one multiplication over the summed nanoseconds.
	cuts := []time.Duration{333_333, 100_001, 7}
	var w WaveStats
	var floatSum float64
	var busy time.Duration
	for _, c := range cuts {
		w.Merge(WaveStats{Busy: c, Joules: DefaultActiveWatts * c.Seconds()})
		floatSum += DefaultActiveWatts * c.Seconds()
		busy += c
	}
	want := DefaultActiveWatts * busy.Seconds()
	if math.Float64bits(w.Joules) != math.Float64bits(want) || w.Busy != busy {
		t.Fatalf("merged %v J over %v, want %v J over %v", w.Joules, w.Busy, want, busy)
	}
	if math.Float64bits(floatSum) == math.Float64bits(want) {
		t.Fatal("the cuts' float joules add exactly: the test does not tell the two rules apart")
	}
}
