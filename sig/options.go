package sig

// TaskOption configures a task at Submit time. The options mirror the
// clauses of the paper's #pragma omp task directive: label, significant and
// approxfun, plus a declared cost. The paper's in and out data clauses have no
// option: this runtime tracks no dependences, so nothing would read them.
// Options write through the *Task they are handed; they must not retain it —
// tasks are pool-recycled after completion.
type TaskOption func(*Task)

// TaskSpec describes one task for Runtime.SubmitBatch: the struct-shaped
// equivalent of Submit's functional options, so a batch of fine-grained
// tasks can be submitted without per-task closure or option-slice overhead.
// The zero value of the cost fields means "measure execution time"; set
// HasCost to declare nominal costs as WithCost would (CostApprox 0 then
// means the approximation is a drop).
type TaskSpec struct {
	// Fn is the accurate task body (required).
	Fn func()
	// Approx is the optional approximate body (the approxfun clause).
	Approx func()
	// Significance in [0,1], clamped like WithSignificance. The zero
	// value means fully significant (1.0), mirroring Submit without a
	// WithSignificance option — so a plain work batch runs accurately
	// rather than being silently skipped. To request the special
	// always-approximate significance 0.0, set any negative value.
	Significance float64
	// HasCost declares CostAccurate/CostApprox as the task's nominal
	// costs (see WithCost); when false, execution time is measured.
	HasCost      bool
	CostAccurate float64
	CostApprox   float64
}

// WithLabel assigns the task to a group (the label clause).
func WithLabel(g *Group) TaskOption {
	return func(t *Task) { t.group = g }
}

// WithSignificance sets the task's significance (the significant clause),
// clamped to [0,1]. 1.0 forces accurate execution, 0.0 forces approximate
// execution; values in between are interpreted by the policy.
func WithSignificance(s float64) TaskOption {
	return func(t *Task) { t.Significance = clamp01(s) }
}

// WithApprox attaches the approximate task body (the approxfun clause). A
// task selected for approximate execution without one is skipped entirely,
// which is the model's task-dropping degradation.
func WithApprox(fn func()) TaskOption {
	return func(t *Task) { t.approx = fn }
}

// WithCost declares the task's nominal work in cost units (1 unit ≈ 1ns of
// nominal-frequency execution) for the accurate and approximate bodies.
// Declared costs feed the modeled energy account deterministically —
// immune to preemption and timer noise — instead of the measured execution
// time fallback. Pass approx 0 for a task whose approximation is a drop.
func WithCost(accurate, approx float64) TaskOption {
	return func(t *Task) {
		t.costAcc = accurate
		t.costApprox = approx
	}
}
