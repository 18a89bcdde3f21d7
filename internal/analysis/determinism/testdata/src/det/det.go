// Package det exercises the determinism analyzer: wall-clock reads,
// global-source rand and map iteration are rejected in a package that
// declares itself replay-deterministic.
//
//siglint:deterministic
package det

import (
	"math/rand"
	"time"
)

func clocks() time.Duration {
	t0 := time.Now()      // want `wall-clock read time.Now`
	return time.Since(t0) // want `wall-clock read time.Since`
}

func clockLineOptOut() time.Time {
	return time.Now() //siglint:wallclock watchdog arm only, never feeds a decision
}

// clockFuncOptOut reads the clock for latency measurement.
//
//siglint:wallclock latency histogram input, excluded from replay state
func clockFuncOptOut() time.Duration {
	return time.Since(time.Now())
}

//siglint:wallclock
func clockBareOptOut() time.Time {
	return time.Now() // want `needs a justification`
}

var rng = rand.New(rand.NewSource(42))

func draws() int {
	a := rand.Intn(8) // want `rand.Intn uses the unseeded global source`
	return a + rng.Intn(8)
}

// total accumulates integers, which is order-insensitive, but the suite
// has no use for map order at all: every map range is reported.
func total(m map[string]int) int {
	n := 0
	for _, v := range m { // want `map iteration in replay-deterministic package`
		n += v
	}
	return n
}
