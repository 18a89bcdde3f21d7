package sig

import "time"

// The modeled per-core power figures, loosely calibrated to the paper's
// evaluation platform (a 4-module/8-core x86 server): a busy core draws
// DefaultActiveWatts, an idle core DefaultIdleWatts. They are constants, not
// configuration: every study, gate and benchmark check prices joules at these
// two figures, so a runtime that could be built with others would silently
// falsify them.
//
// The model is deliberately simple — E = P_active · t_busy, with t_busy
// either the declared task costs (deterministic; see WithCost) or the
// measured body execution time — because the experiments only rely on
// relative energy between policies on identical workloads. Idle power is
// excluded from Joules (it is policy-invariant at equal wall time) but
// carried in the report so the DVFS and NTC studies can reason about it
// analytically.
const (
	DefaultActiveWatts = 12.0
	DefaultIdleWatts   = 2.0
)

// Report is a modeled energy account of a runtime's lifetime. Reports
// returned after Close are frozen: the wall clock stops at Close and
// repeated Energy calls return identical values.
type Report struct {
	// Joules is the total modeled energy.
	Joules float64
	// Wall is the elapsed wall-clock time of the runtime.
	Wall time.Duration
	// Busy is the summed task-execution time across all workers.
	Busy time.Duration
	// Workers is the worker-pool size the report was computed for.
	Workers int
	// ActiveWatts and IdleWatts echo the model's two constants, so
	// downstream studies (e.g. the DVFS ablation) can rescale the report
	// analytically.
	ActiveWatts float64
	IdleWatts   float64
}

// joules is the energy rule of every account — a wave's, a runtime's, a
// fleet's: one multiplication over exact integer busy nanoseconds.
func joules(busy time.Duration) float64 { return DefaultActiveWatts * busy.Seconds() }

// Merge folds in the account of a runtime that ran beside r's, or before it in
// the same fleet slot: busy time and workers add, Wall is the longer, and
// Joules is priced afresh from the integer busy sum — never by adding float
// joules — so the merge is bit-identical to one runtime running the same bodies.
func (r *Report) Merge(o Report) {
	r.Busy += o.Busy
	r.Wall = max(r.Wall, o.Wall)
	r.Workers += o.Workers
	r.Joules = joules(r.Busy)
	r.ActiveWatts, r.IdleWatts = DefaultActiveWatts, DefaultIdleWatts
}
