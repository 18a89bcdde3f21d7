package sig

import "time"

// DefaultActiveWatts is the modeled power of a busy core, loosely calibrated
// to the paper's evaluation platform (a 4-module/8-core x86 server). It is a
// constant, not configuration: every study, gate and benchmark check prices
// joules at this figure, so a runtime that could be built with another would
// silently falsify them.
//
// The model is deliberately simple — E = P_active · t_busy, with t_busy
// either the declared task costs (deterministic; see WithCost) or the
// measured body execution time — because the experiments only rely on
// relative energy between policies on identical workloads. Idle power is not
// modeled: it is policy-invariant at equal wall time.
const DefaultActiveWatts = 12.0

// Report is a modeled energy account of a runtime's lifetime. After Close
// no task runs, so repeated Energy calls return identical reports.
type Report struct {
	// Joules is the total modeled energy.
	Joules float64
	// Busy is the summed task-execution time across all workers.
	Busy time.Duration
	// Workers is the worker-pool size the report was computed for.
	Workers int
}

// joules is the energy rule of every account — a wave's, a runtime's: one
// multiplication over exact integer busy nanoseconds, never a sum of float
// joules.
func joules(busy time.Duration) float64 { return DefaultActiveWatts * busy.Seconds() }
