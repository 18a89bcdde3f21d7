package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestTierSequenceSeeded(t *testing.T) {
	a, b, c := tierSequence(7, 1000), tierSequence(7, 1000), tierSequence(8, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different tier sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same tier sequence")
	}
	if len(a) != 1000 {
		t.Fatalf("got %d tiers, want 1000", len(a))
	}
	// Balanced in every aligned block of 16, so a window's tier mix does not
	// depend on the seed.
	for blk := 0; blk+16 <= len(a); blk += 16 {
		var n [4]int
		for _, tier := range a[blk : blk+16] {
			n[tier]++
		}
		if n != [4]int{4, 4, 4, 4} {
			t.Fatalf("block at %d holds %v of each tier, want 4 each", blk, n)
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	backend := harness.SobelServeBackend(serveScale)
	interval := openInterval(backend.CostAccurate)
	capacity := workers * 1e9 / backend.CostAccurate
	if got := 1 / interval.Seconds(); got < 1.99*capacity || got > 2.01*capacity {
		t.Errorf("arrival rate %.0f/s, want 2.0x the modeled capacity %.0f/s", got, capacity)
	}
	// Due times are start + i*interval: same seed or not, the spacing is
	// fixed; the seed decides which significance arrives when.
	start := time.Unix(0, 0)
	if d := dueTime(start, interval, 1000).Sub(dueTime(start, interval, 999)); d != interval {
		t.Errorf("spacing %v, want %v", d, interval)
	}
	sigs := func(seed int64) []float64 {
		var out []float64
		for _, tier := range tierSequence(seed, 64) {
			out = append(out, tierSignificance[tier])
		}
		return out
	}
	if !reflect.DeepEqual(sigs(3), sigs(3)) || reflect.DeepEqual(sigs(3), sigs(4)) {
		t.Error("the significance order must follow the seed, and only the seed")
	}
}

func TestHTTPSegmentPattern(t *testing.T) {
	var kinds [3]int
	var traced, untraced int
	for i := 0; i < httpPattern; i++ {
		k := httpSegKind(i)
		kinds[k]++
		if k == segStack {
			if httpSegTraced(i) {
				traced++
			} else {
				untraced++
			}
		} else if httpSegTraced(i) {
			t.Errorf("bare segment %d is marked traced", i)
		}
	}
	if kinds != [3]int{4, 1, 1} || traced != 2 || untraced != 2 {
		t.Errorf("pattern: kinds %v, %d traced, %d untraced", kinds, traced, untraced)
	}
}
