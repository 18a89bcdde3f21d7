package harness

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/sig"
	"repro/sig/serve"
	"repro/sig/shard"
)

// FleetStudy evaluates the self-healing elastic fleet along its two
// headline axes, both fully deterministic (declared costs, scripted
// arrivals, pure-arithmetic controllers):
//
// Part A — rolling replace. Under a sustained significance-tiered stream,
// every shard of the fleet is replaced in sequence: surge a spare slot in
// (AddShard), drain the victim, keep submitting throughout. The study
// reports the requests lost (must be zero — drain refuses to lose work),
// the waves spent below nominal routable capacity (zero with a spare
// slot: the surge lands before the drain), and whether the merged modeled
// energy stayed bit-identical to a single-runtime golden executing the
// same outcome mix — the retirement account's exact integer busy-ns sum
// at work across every replacement.
//
// Part B — autoscale step response. A serve.Server with a quality floor
// (MinRatio 1: degradation cannot absorb load, the regime autoscaling
// exists for) takes an offered-load step up and back down. The study
// records the live-shard trajectory and reports the waves to reach
// MaxShards after the step, the waves to return to MinShards after load
// ends, and the oscillation count (direction reversals beyond the single
// up-then-down turn — must be zero: hysteresis and cooldown exist to
// prevent relay chatter).

// The study's fixed configuration.
const (
	// fleetWorkersPerShard sizes each rolling-replace shard's pool.
	fleetWorkersPerShard = 2
	// fleetRatio is the rolling-replace group's accuracy ratio.
	fleetRatio = 0.5
	// fleetCostAcc/fleetCostDeg are the declared rolling-replace task costs.
	fleetCostAcc = 10_000.0
	fleetCostDeg = 1_000.0
	// fleetHighPerWave is the offered requests per wave of the autoscale
	// overload step.
	fleetHighPerWave = 24
	// fleetMaxDownWaves bounds the idle tail the study waits for the fleet
	// to shrink back to MinShards.
	fleetMaxDownWaves = 80
)

// FleetStudyConfig parameterizes FleetStudy. Zero fields take defaults.
type FleetStudyConfig struct {
	// Shards is the nominal rolling-replace fleet size (default 4); the
	// router gets one spare slot for surge-then-drain replacement.
	Shards int
	// PerWave is the rolling-replace tasks submitted per wave (default
	// 64 × Shards).
	PerWave int
	// HighWaves is the length of the autoscale overload step (default 20).
	HighWaves int
}

func (c FleetStudyConfig) withDefaults() FleetStudyConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.PerWave <= 0 {
		c.PerWave = 64 * c.Shards
	}
	if c.HighWaves <= 0 {
		c.HighWaves = 20
	}
	return c
}

// FleetReplaceResult is Part A's outcome.
type FleetReplaceResult struct {
	Shards int
	// Replaced is the number of completed drain+rejoin cycles (one per
	// nominal shard).
	Replaced int
	// Submitted/Decided are the stream totals; Lost is their difference
	// and the study's first gate (must be 0).
	Submitted, Decided int64
	Lost               int64
	// DegradedWaves counts waves that began with fewer than Shards
	// routable shards (0 with a spare slot: capacity never dips).
	DegradedWaves int
	// MergedJoules/GoldenJoules are the fleet's energy account and the
	// single-runtime reconstruction of the same outcome mix;
	// JoulesBitIdentical is their bit equality.
	MergedJoules, GoldenJoules float64
	JoulesBitIdentical         bool
}

// FleetScaleResult is Part B's outcome.
type FleetScaleResult struct {
	MinShards, MaxShards int
	// Trajectory is the live-shard count after every wave.
	Trajectory []int
	// WavesToScaleUp is how many step waves passed before the fleet
	// reached MaxShards (-1: never).
	WavesToScaleUp int
	// WavesToScaleDown is how many idle waves passed after the step ended
	// before the fleet returned to MinShards (-1: never).
	WavesToScaleDown int
	// Oscillations counts direction reversals beyond the single
	// up-then-down turn of a step response (0 = no relay chatter).
	Oscillations int
	// Rejected is the overload rejections during the step (the queue
	// bounds memory; rejection is not a scaling failure).
	Rejected int64
}

// FleetResult is the study outcome.
type FleetResult struct {
	Config  FleetStudyConfig
	Replace FleetReplaceResult
	Scale   FleetScaleResult
}

// fleetReplace runs Part A.
func fleetReplace(cfg FleetStudyConfig) (FleetReplaceResult, error) {
	res := FleetReplaceResult{Shards: cfg.Shards}
	r, err := shard.New(shard.Config{
		Shards:    cfg.Shards,
		MaxShards: cfg.Shards + 1, // the surge slot
		Runtime:   sig.Config{Workers: fleetWorkersPerShard, Policy: sig.PolicyGTBMaxBuffer},
	})
	if err != nil {
		return res, err
	}
	g := r.Group("roll", fleetRatio)

	var ran atomic.Int64
	wave := func() {
		if r.Routable() < cfg.Shards {
			res.DegradedWaves++
		}
		specs := make([]sig.TaskSpec, cfg.PerWave)
		for i := range specs {
			specs[i] = sig.TaskSpec{
				Fn:           func() { ran.Add(1) },
				Approx:       func() { ran.Add(1) },
				Significance: float64(i%9+1) / 10,
				HasCost:      true, CostAccurate: fleetCostAcc, CostApprox: fleetCostDeg,
			}
		}
		r.SubmitBatch(g, specs)
		res.Submitted += int64(cfg.PerWave)
		r.WaitPhase(g)
	}

	wave() // warm placement state
	for victim := 0; victim < cfg.Shards; victim++ {
		wave()
		if _, err := r.AddShard(); err != nil { // surge first...
			return res, err
		}
		if err := r.DrainShard(victim); err != nil { // ...then drain
			return res, err
		}
		res.Replaced++
		wave()
	}
	r.Wait(g)
	if err := r.Close(); err != nil {
		return res, err
	}

	gs := g.Stats()
	res.Decided = gs.Accurate + gs.Approximate + gs.Dropped
	res.Lost = res.Submitted - res.Decided
	res.MergedJoules = r.Energy().Joules

	// Golden: a single runtime executing the same outcome mix — energy is
	// a function of the mix, not of placement or policy path.
	rt, err := sig.New(sig.Config{Workers: fleetWorkersPerShard, Policy: sig.PolicyAccurate})
	if err != nil {
		return res, err
	}
	specs := make([]sig.TaskSpec, 0, gs.Accurate+gs.Approximate)
	for i := int64(0); i < gs.Accurate; i++ {
		specs = append(specs, sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: fleetCostAcc})
	}
	for i := int64(0); i < gs.Approximate; i++ {
		specs = append(specs, sig.TaskSpec{Fn: func() {}, HasCost: true, CostAccurate: fleetCostDeg})
	}
	rt.SubmitBatch(nil, specs)
	rt.Wait(nil)
	rt.Close()
	res.GoldenJoules = rt.Energy().Joules
	res.JoulesBitIdentical = math.Float64bits(res.MergedJoules) == math.Float64bits(res.GoldenJoules)
	return res, nil
}

// fleetScale runs Part B.
func fleetScale(cfg FleetStudyConfig) (FleetScaleResult, error) {
	const costAcc = 30_000.0
	ac := &shard.AutoscalerConfig{
		MinShards: 1, MaxShards: 4,
		UpAt: 1.5, DownAt: 0.2,
		UpAfter: 2, DownAfter: 3, Cooldown: 1,
	}
	res := FleetScaleResult{MinShards: ac.MinShards, MaxShards: ac.MaxShards, WavesToScaleUp: -1, WavesToScaleDown: -1}
	s, err := newFrozenServer(serve.Config{
		Shards:    2,
		Workers:   1,
		MinRatio:  1, // quality floor: only capacity can absorb the step
		AutoScale: ac,
	}, 8*costAcc)
	if err != nil {
		return res, err
	}

	record := func(rep serve.WaveReport) { res.Trajectory = append(res.Trajectory, rep.LiveShards) }

	// Baseline idle waves — fewer than DownAfter, so the baseline itself
	// doesn't shrink the fleet before the step lands.
	for w := 0; w < ac.DownAfter-1; w++ {
		record(s.RunWave())
	}
	// Step up: sustained offered load beyond the full fleet's capacity.
	for w := 0; w < cfg.HighWaves; w++ {
		for i := 0; i < fleetHighPerWave; i++ {
			_, err := s.Submit(serve.Request{
				Significance: float64(i%9+1) / 10,
				Handler:      func() {},
				CostAccurate: costAcc,
			})
			if err != nil {
				res.Rejected++
			}
		}
		rep := s.RunWave()
		record(rep)
		if res.WavesToScaleUp < 0 && rep.LiveShards == ac.MaxShards {
			res.WavesToScaleUp = w + 1
		}
	}
	// Step down: no arrivals; the fleet drains the backlog and shrinks.
	for w := 0; w < fleetMaxDownWaves; w++ {
		rep := s.RunWave()
		record(rep)
		if rep.LiveShards == ac.MinShards && rep.Depth == 0 {
			res.WavesToScaleDown = w + 1
			break
		}
	}
	if err := s.Close(); err != nil {
		return res, err
	}

	// Oscillations: direction reversals in the trajectory beyond the one
	// up→down turn of a clean step response.
	turns, lastDir := 0, 0
	for i := 1; i < len(res.Trajectory); i++ {
		d := res.Trajectory[i] - res.Trajectory[i-1]
		if d == 0 {
			continue
		}
		dir := 1
		if d < 0 {
			dir = -1
		}
		if lastDir != 0 && dir != lastDir {
			turns++
		}
		lastDir = dir
	}
	res.Oscillations = max(0, turns-1)
	return res, nil
}

// FleetStudy runs both parts.
func FleetStudy(cfg FleetStudyConfig) (FleetResult, error) {
	cfg = cfg.withDefaults()
	res := FleetResult{Config: cfg}
	var err error
	if res.Replace, err = fleetReplace(cfg); err != nil {
		return res, err
	}
	res.Scale, err = fleetScale(cfg)
	return res, err
}

// PrintFleetStudy renders the study.
func PrintFleetStudy(w io.Writer, r FleetResult) {
	a := r.Replace
	fmt.Fprintf(w, "Fleet study A: rolling replace of %d shards (+1 surge slot), %d tasks/wave at ratio %.2f\n",
		a.Shards, r.Config.PerWave, fleetRatio)
	fmt.Fprintf(w, "  replaced %d/%d shards; %d submitted, %d decided, %d lost; %d waves below nominal capacity\n",
		a.Replaced, a.Shards, a.Submitted, a.Decided, a.Lost, a.DegradedWaves)
	additive := "bit-identical"
	if !a.JoulesBitIdentical {
		additive = "NOT bit-identical — retirement account broken"
	}
	fmt.Fprintf(w, "  merged energy %.6fJ vs single-runtime golden %.6fJ: %s\n", a.MergedJoules, a.GoldenJoules, additive)
	fmt.Fprintln(w)

	b := r.Scale
	fmt.Fprintf(w, "Fleet study B: autoscale step response (%d..%d shards, %d waves of %d offered requests)\n",
		b.MinShards, b.MaxShards, r.Config.HighWaves, fleetHighPerWave)
	up := fmt.Sprintf("%d waves", b.WavesToScaleUp)
	if b.WavesToScaleUp < 0 {
		up = "never"
	}
	down := fmt.Sprintf("%d waves", b.WavesToScaleDown)
	if b.WavesToScaleDown < 0 {
		down = "never"
	}
	fmt.Fprintf(w, "  scale-up to max: %s after the step; scale-down to min: %s after load ends; %d oscillations; %d rejected\n",
		up, down, b.Oscillations, b.Rejected)
	fmt.Fprintf(w, "  live-shard trajectory: %v\n", b.Trajectory)
}
