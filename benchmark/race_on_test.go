//go:build race

package main

// raceEnabled: the race detector slows the stack several times over, so the
// open-loop workload — arrivals on a clock at twice the modeled capacity —
// cannot be served on schedule and refuses requests, which is a failed check.
// The smoke tests skip serve_open under -race; the other workloads still run
// there, so the benchmark's own goroutines are race-checked.
const raceEnabled = true
