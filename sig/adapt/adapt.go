// Package adapt closes the quality/energy feedback loop the paper's §5
// leaves to the runtime: an online Controller owns a task group's accuracy
// ratio and retunes it wave by wave from the per-wave telemetry WaitPhase
// returns. The caller hands each wave on; nobody is called back.
//
// Two objectives are supported. TargetQuality drives a caller-supplied
// quality probe to a setpoint using the lowest ratio that holds it — the
// operator's "hold PSNR above X with minimum energy". TargetLoad caps a
// caller-computed load signal while providing the highest ratio the cap
// affords: sig/serve uses it to map queue depth and modeled demand onto the
// ratio, and a Measure that returns ws.Joules caps the modeled joules per
// wave. Both laws are pure float arithmetic over the wave telemetry (no
// clocks, no randomness), so a run with declared task costs and a
// deterministic policy reproduces the identical ratio trajectory at any
// worker count — regression-tested under -race.
//
// Usage:
//
//	ctl, _ := adapt.New(adapt.Config{
//		Objective: adapt.TargetQuality,
//		Setpoint:  17, // dB
//		Probe:     func() float64 { return imaging.PSNR(ref, out) },
//	})
//	rt, _ := sig.New(sig.Config{Policy: sig.PolicyGTBMaxBuffer})
//	grp := rt.Group("sobel", 1.0)
//	for each frame {
//		app.SubmitFrame(rt, grp, out)
//		s := ctl.Observe(grp, rt.WaitPhase(grp)) // retunes grp's ratio; s is the wave's record
//	}
//
//siglint:deterministic
package adapt

import (
	"fmt"
	"math"
	"sync"

	"repro/sig"
)

// Objective selects what the controller regulates.
type Objective int

const (
	// TargetQuality drives the quality probe to Config.Setpoint with the
	// lowest ratio (hence minimal modeled energy) that holds it.
	TargetQuality Objective = iota
	// TargetLoad caps a caller-measured load signal (Config.Measure — e.g.
	// a serving layer's queue depth or modeled demand vs capacity, or the
	// wave's modeled joules) at Config.Budget while providing the highest
	// ratio that fits the cap. The signal must be monotone increasing in
	// the ratio.
	TargetLoad
)

// The controller's gains. They assume nothing about the probe's units:
// errors are normalized by the setpoint's magnitude and the secant estimate
// takes over as soon as two informative waves exist — which is why no caller
// ever needed others, and why they are constants: the reaction-time bounds
// (bounds.go) and every gate built on them are stated for these values, so
// the control plane is one machine to explore, not a family of them.
const (
	// DefaultGain is the proportional gain on the normalized error.
	DefaultGain = 2.0
	// DefaultMaxStep bounds the per-wave ratio change.
	DefaultMaxStep = 0.25
	// DefaultDeadband is the relative error inside which the ratio holds.
	DefaultDeadband = 0.02
)

// WindowFloor is a long-run quality SLO layered over any objective: the
// mean provided ratio over the last Window waves must stay at or above
// Floor. It is the windowed (long-run average) form of a quality floor —
// per-wave ratios may dip below Floor during transients, as long as the
// surrounding window makes up for the dip. PAPERS.md's "Long-Run Average
// Behavior of VASS" motivates the form: hold the SLO as an average over a
// sliding window rather than per step.
type WindowFloor struct {
	// Window is the averaging horizon in waves (≥ 1). Window 1 degenerates
	// to a per-wave floor.
	Window int
	// Floor is the windowed mean provided ratio to hold, in [0, 1].
	Floor float64
}

// Config parameterizes a Controller.
type Config struct {
	// Objective selects the control law.
	Objective Objective
	// Setpoint is the quality target, in the probe's units, for
	// TargetQuality. Higher probe values must mean better quality (PSNR
	// does; invert lower-is-better metrics in the probe).
	Setpoint float64
	// Probe measures the completed wave's output quality. Required for
	// TargetQuality; called once per wave inside Observe, after every task
	// of the wave finished.
	Probe func() float64
	// Budget is TargetLoad's cap on the Measure signal, in its units.
	Budget float64
	// Measure maps the completed wave's telemetry to the regulated load
	// signal. Required for TargetLoad; called once per wave inside Observe,
	// so it may also read state the caller updates between waves (queue
	// depths, arrival counts).
	Measure func(ws sig.WaveStats) float64
	// Min floors the commanded ratio, in [0, 1]; the ceiling is 1.
	Min float64
	// WindowFloor, when non-nil, wraps the objective with a long-run
	// quality floor: whatever the law commands, the next ratio is raised
	// (never lowered) to the minimum that keeps the mean provided ratio
	// over the last WindowFloor.Window waves at or above WindowFloor.Floor.
	// The commanded ratio stands in for the wave it commands — exact under
	// the deterministic GTB policies up to batch quantization — and the
	// clamp is pure arithmetic over the retained window, so a floored
	// controller replays bit-identically like an unfloored one.
	WindowFloor *WindowFloor
}

// Sample is one control step's record: what Observe saw of a wave and what
// it commanded. The controller keeps no trace; a caller that wants one
// collects the Samples Observe returns.
type Sample struct {
	// Wave is the runtime's wave index.
	Wave int
	// Ratio is the ratio that was in effect while the wave ran;
	// NextRatio is what the controller commanded for the next wave.
	Ratio     float64
	NextRatio float64
	// Measure is the regulated variable: the probe's value under
	// TargetQuality, the Config.Measure signal under TargetLoad.
	Measure float64
	// ProvidedRatio and Joules echo the wave telemetry.
	ProvidedRatio float64
	Joules        float64
	// Held reports that the measure sat inside the deadband and the
	// ratio was left alone.
	Held bool
	// WindowMean is the mean provided ratio over the retained WindowFloor
	// window after this wave (0 when no WindowFloor is configured).
	WindowMean float64
}

// Controller is a per-group feedback controller. Hand it each of the
// group's waves (Observe) and it owns the group's ratio from the first
// completed wave on.
type Controller struct {
	cfg Config

	mu sync.Mutex
	// prev is the last informative (ratio, measure) point, used for the
	// secant slope estimate.
	prevRatio   float64
	prevMeasure float64
	havePrev    bool
	// win is WindowFloor's ring of the last Window provided ratios: winN
	// valid entries, winIdx the next write position. Nil without a floor.
	win    []float64
	winN   int
	winIdx int
}

// New validates cfg and builds a Controller.
func New(cfg Config) (*Controller, error) {
	switch cfg.Objective {
	case TargetQuality:
		if cfg.Probe == nil {
			return nil, fmt.Errorf("adapt: TargetQuality requires a Probe")
		}
		if math.IsNaN(cfg.Setpoint) || math.IsInf(cfg.Setpoint, 0) {
			return nil, fmt.Errorf("adapt: non-finite Setpoint %v", cfg.Setpoint)
		}
	case TargetLoad:
		if cfg.Measure == nil {
			return nil, fmt.Errorf("adapt: TargetLoad requires a Measure")
		}
		if !(cfg.Budget > 0) {
			return nil, fmt.Errorf("adapt: TargetLoad requires a positive Budget, got %v", cfg.Budget)
		}
	default:
		return nil, fmt.Errorf("adapt: unknown objective %d", cfg.Objective)
	}
	if cfg.Min < 0 || cfg.Min > 1 {
		return nil, fmt.Errorf("adapt: Min %v outside [0,1]", cfg.Min)
	}
	if wf := cfg.WindowFloor; wf != nil {
		if wf.Window < 1 {
			return nil, fmt.Errorf("adapt: WindowFloor.Window %d < 1", wf.Window)
		}
		if wf.Floor < 0 || wf.Floor > 1 {
			return nil, fmt.Errorf("adapt: WindowFloor.Floor %v outside [0,1]", wf.Floor)
		}
	}
	c := &Controller{cfg: cfg}
	if wf := cfg.WindowFloor; wf != nil {
		c.win = make([]float64, wf.Window)
	}
	return c, nil
}

// Target is the retunable surface the controller drives: the knob of a
// group whose accuracy ratio it owns. *sig.Group satisfies it; a caller whose
// knob is spelled otherwise — a sig/shard Router group is retargeted by
// calling Router.Group again — wraps it in a one-method adapter.
type Target interface {
	SetRatio(float64)
}

// Observe runs one control step on a completed wave of g — the WaveStats
// g's WaitPhase returned — retunes g's ratio for the next wave and returns
// the step's record. For TargetQuality an empty wave carries no
// information: it leaves the controller and g untouched and returns the
// zero Sample. For TargetLoad an empty wave IS informative — zero demand —
// and is processed, so a load-shedding server recovers its ratio while idle
// instead of freezing at the last overload's value. That holds for a joules
// cap too: an empty wave measures 0 J and steps the ratio up.
func (c *Controller) Observe(g Target, ws sig.WaveStats) Sample {
	var measure float64
	if c.cfg.Objective == TargetQuality {
		if ws.Submitted == 0 {
			return Sample{}
		}
		measure = c.cfg.Probe()
	} else {
		measure = c.cfg.Measure(ws)
	}
	c.mu.Lock()
	next, held := c.step(ws.RequestedRatio, measure)
	var winMean float64
	if c.cfg.WindowFloor != nil {
		next, held, winMean = c.applyFloor(next, held, ws.ProvidedRatio)
	}
	c.mu.Unlock()
	g.SetRatio(next)
	return Sample{
		Wave:          ws.Wave,
		Ratio:         ws.RequestedRatio,
		NextRatio:     next,
		Measure:       measure,
		ProvidedRatio: ws.ProvidedRatio,
		Joules:        ws.Joules,
		Held:          held,
		WindowMean:    winMean,
	}
}

// step runs one control update: from the ratio that produced the wave and
// the measured variable, pick the next ratio. Caller holds c.mu.
func (c *Controller) step(ratio, measure float64) (next float64, held bool) {
	setpoint := c.cfg.Setpoint
	isCap := c.cfg.Objective == TargetLoad // a load budget is a cap
	if isCap {
		setpoint = c.cfg.Budget
	}
	scale := math.Max(math.Abs(setpoint), 1e-12)

	// Non-finite measures (a probe returning +Inf on a bit-exact wave)
	// carry only a direction: quality is in gross excess, so step the
	// ratio down hard; the point is not usable for the secant estimate.
	if math.IsNaN(measure) || math.IsInf(measure, 0) {
		dir := -1.0
		if math.IsInf(measure, -1) {
			dir = 1.0
		}
		return c.clampRatio(ratio + dir*DefaultMaxStep), false
	}

	// The setpoint is one-sided: a quality target is a floor (hold the
	// probe at or above it, as close as the deadband allows — that is the
	// minimal-energy point), a load budget is a cap (stay at or below
	// it while providing as much ratio as fits). The controller holds
	// only inside the band on the safe side of the setpoint.
	err := setpoint - measure
	band := 2 * DefaultDeadband * scale
	var inBand bool
	if isCap {
		inBand = measure <= setpoint && setpoint-measure <= band
	} else {
		inBand = measure >= setpoint && measure-setpoint <= band
	}
	if inBand {
		c.prevRatio, c.prevMeasure, c.havePrev = ratio, measure, true
		return ratio, true
	}

	// Secant step: estimate the local measure-vs-ratio slope from the
	// last informative wave and jump to where the setpoint should sit.
	// Both objectives increase with ratio (more accurate tasks = better
	// quality, more load), so only a positive slope is trusted;
	// otherwise fall back to a proportional step on the normalized error.
	step := DefaultGain * clamp(err/scale, -1, 1) * DefaultMaxStep
	if c.havePrev && ratio != c.prevRatio {
		slope := (measure - c.prevMeasure) / (ratio - c.prevRatio)
		if slope > 1e-12 {
			step = err / slope
		}
	}
	step = clamp(step, -DefaultMaxStep, DefaultMaxStep)
	c.prevRatio, c.prevMeasure, c.havePrev = ratio, measure, true
	return c.clampRatio(ratio + step), false
}

// applyFloor enforces Config.WindowFloor: push the completed wave's
// provided ratio into the window ring, then raise next (never lower it) so
// the windowed mean stays at or above the floor. With p_1..p_k the most
// recent min(seen, Window−1) provided ratios — the part of the next wave's
// window already fixed — the next wave must provide at least
// (k+1)·Floor − Σ p_i; the commanded ratio stands in for what it will
// provide. A need beyond 1 clamps to 1: the controller commands the best it
// can. Caller holds c.mu.
func (c *Controller) applyFloor(next float64, held bool, provided float64) (float64, bool, float64) {
	wf := c.cfg.WindowFloor
	w := len(c.win)
	c.win[c.winIdx] = provided
	c.winIdx = (c.winIdx + 1) % w
	if c.winN < w {
		c.winN++
	}
	// Sum oldest → newest so the float accumulation order is a function of
	// the trajectory alone — bit-identical under replay.
	start := (c.winIdx - c.winN + w) % w
	var sumAll float64
	for i := 0; i < c.winN; i++ {
		sumAll += c.win[(start+i)%w]
	}
	sumRecent := sumAll // the next wave's window keeps all retained waves…
	kept := c.winN
	if c.winN == w {
		sumRecent -= c.win[start] // …unless full: the oldest rolls off
		kept = w - 1
	}
	need := float64(kept+1)*wf.Floor - sumRecent
	if f := c.clampRatio(need); f > next {
		next, held = f, false
	}
	return next, held, sumAll / float64(c.winN)
}

func (c *Controller) clampRatio(r float64) float64 {
	return clamp(r, c.cfg.Min, 1)
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	}
	return x
}
