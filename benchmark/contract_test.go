package main

import (
	"testing"
)

// TestContractMatchesCode keeps BENCHMARK.json and the metric tables in
// step: same workloads and reasons, same metric names, units and directions, in both
// metric sets.
func TestContractMatchesCode(t *testing.T) {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := workloads()
	if len(c.Workloads) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json has %d, code has %d", len(c.Workloads), len(want))
	}
	for i, w := range want {
		if got := c.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%s), code has %q (%s)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	compare := func(set string, got []contractMetric, defs []metricDef) {
		t.Helper()
		byName := map[string]contractMetric{}
		for _, m := range got {
			byName[m.Name] = m
		}
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code defines %d", set, len(got), len(defs))
		}
		for _, d := range defs {
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s: %s is missing from BENCHMARK.json", set, d.name)
				continue
			}
			better := "higher"
			if d.lowerBest {
				better = "lower"
			}
			if m.Unit != d.unit || m.Better != better {
				t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s in code", set, d.name, m.Unit, m.Better, d.unit, better)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd)
	compare("per_layer", c.PerLayer, perLayer())
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end: %s has bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// Flag values come from outside the program: a window the segment estimators
// cannot divide, a -trace that is neither 0 nor 1 and an unknown workload are
// usage errors, not panics.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-seconds", "0"}, {"-seconds", "-3"}, {"-seconds", "NaN"}, {"-seconds", "1e-9"},
		{"-trace", "2"}, {"-workload", "nope"}, {"-runs", "1"}, {"stray"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// The self-check does not pass for want of data: a set with fewer than two
// values has no quartiles, and that fails.
func TestJudge(t *testing.T) {
	lower := contractMetric{Name: "latency_p50_s", Better: "lower", Bound: 0.25}
	setup := contractMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	higher := contractMetric{Name: "speedup", Better: "higher", Bound: 0.25}
	steady := []float64{1, 1.01, 1.02, 1.03}
	wide := []float64{0.5, 0.9, 1.1, 1.5}
	for _, c := range []struct {
		name    string
		m       contractMetric
		a, b    []float64
		ok      bool
		verdict string
	}{
		{"steady", lower, steady, steady, true, "ok"},
		{"one value", lower, []float64{1}, steady, false, "EXCEEDS BOUND"},
		{"no values", setup, nil, nil, false, "EXCEEDS BOUND"},
		{"wide spread", lower, wide, wide, false, "EXCEEDS BOUND"},
		{"wide spread of setup_s", setup, wide, wide, true, "ok (spread above a third of the bound)"},
		{"spread above a third", lower, []float64{1, 1, 1.1, 1.1}, steady, true, "ok (spread above a third of the bound)"},
		{"median up, lower is better", lower, steady, []float64{1.4, 1.41, 1.42, 1.43}, false, "EXCEEDS BOUND"},
		{"median up, higher is better", higher, steady, []float64{1.4, 1.41, 1.42, 1.43}, true, "ok"},
		{"median down, higher is better", higher, []float64{1.4, 1.41, 1.42, 1.43}, steady, false, "EXCEEDS BOUND"},
	} {
		if _, verdict, ok := judge(c.m, c.a, c.b); ok != c.ok || verdict != c.verdict {
			t.Errorf("%s: judge = %q, %v; want %q, %v", c.name, verdict, ok, c.verdict, c.ok)
		}
	}
}
