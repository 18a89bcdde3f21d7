package sig

import (
	"math"
	"testing"
	"time"
)

// The three Merge helpers are the only arithmetic behind every merged account
// (a wave, a group, an energy report). These pin the edge their former copies
// disagreed about most easily — an account that decided nothing provides its
// requested ratio, in a wave and in a group — and the rule that floats are
// derived from integer sums, never added.

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

func TestGroupMergeEmptyProvidesRequested(t *testing.T) {
	gs := GroupStats{Name: "g", RequestedRatio: 0.7}
	gs.Merge(GroupStats{Name: "shard-part", Submitted: 5, RequestedRatio: 1, ProvidedRatio: 1})
	if gs.ProvidedRatio != 0.7 || gs.Name != "g" || gs.RequestedRatio != 0.7 || gs.Submitted != 5 {
		t.Fatalf("undecided group merged to %+v, want provided 0.7 under its own name and ratio", gs)
	}
	gs.Merge(GroupStats{Accurate: 3, Dropped: 1, Decisions: []DecisionRecord{{Wave: 1}}})
	gs.Merge(GroupStats{Approximate: 2, Decisions: []DecisionRecord{{Wave: 2}, {Wave: 3}}})
	if gs.ProvidedRatio != 0.5 {
		t.Fatalf("merged %+v, want provided 0.5 (3 of 6)", gs)
	}
	for i, d := range gs.Decisions {
		if d.Wave != i+1 {
			t.Fatalf("decision log %+v is not in argument order", gs.Decisions)
		}
	}
}

func TestReportMerge(t *testing.T) {
	var rep Report
	rep.Merge(Report{Busy: 333_333, Wall: 5 * time.Millisecond, Workers: 2, Joules: 1e9})
	rep.Merge(Report{Busy: 100_001, Wall: 3 * time.Millisecond, Workers: 1})
	busy := time.Duration(433_334)
	want := Report{
		Joules: DefaultActiveWatts * busy.Seconds(), Wall: 5 * time.Millisecond, Busy: busy, Workers: 3,
	}
	if rep != want {
		t.Fatalf("merged report %+v, want %+v", rep, want)
	}
}
