package adapt

import "math"

// Provable reaction bounds of the cap objective (TargetLoad), in waves,
// derived from the secant law's update arithmetic in step() at the fixed
// gains DefaultGain and DefaultMaxStep. A caller prices a bound in wall time
// by multiplying it by the wave period it holds — the measured one
// (serve.Server.MeasuredPeriod): a bound priced at the configured nominal
// period understates the reaction time by the factor the waves overrun.
//
//   - The measure is affine in the ratio for declared-cost loads:
//     sig/serve prices demand as Σ(r·acc + (1−r)·deg)/budget, so between
//     two waves in the same load regime the secant slope estimate is exact
//     and one step lands on the cap.
//   - Every step is clamped to ±MaxStep and the command to [Min, 1].
//   - The proportional fallback (used when the two retained points
//     straddle a regime change and the slope estimate is non-positive)
//     moves Gain·clamp(err/scale, −1, 1)·MaxStep.
//
// From those three facts alone:
//
// Shedding (a load step up of ΔR ratio-equivalents). Wave 1 detects: the
// step lands mid-wave, the wave that measures it ran at the old command,
// and the law reacts only at its boundary. Wave 2 re-anchors: the secant's
// previous point predates the step, so the slope estimate can be useless
// (even non-positive → proportional fallback); its progress is ≥ 0 and it
// leaves both retained points inside the new regime. From wave 3 on the
// slope estimate is exact-or-pessimistic — backlog growth between waves
// only shifts the load curve up, which biases the estimated slope LOW and
// the downhill step err/slope LARGE — so every wave travels
// min(MaxStep, remaining distance). Total: 2 + ⌈ΔR/MaxStep⌉ waves.
//
// Recovery (the overload ends). While a backlog remains the measure can
// sit at the cap and the command stays put — the caller owns that phase
// (waves to drain N backlogged requests at the post-shed admission rate)
// and adds it to this bound. Once drained, at utilization u < 1 the
// measure at any command is ≤ u·cap, so the normalized error is at least
// the headroom 1−u: the proportional fallback climbs at least
// Gain·(1−u)·MaxStep per wave (clamped at MaxStep), and an uphill secant
// step aims at the ratio where the measure meets the cap — beyond 1 when
// u < 1, so it too clamps to MaxStep. Climb per wave is therefore at least
// min(Gain·(1−u), 1)·MaxStep, and the same detect + re-anchor waves
// bracket the travel: 2 + ⌈ΔR/(min(Gain·(1−u), 1)·MaxStep)⌉.
//
// Assumptions, asserted by the invariant suite and recorded alongside the
// measured values in harness.SLOStudy:
//
//  1. Declared request costs (the measure is affine in the ratio; measured
//     fallback costs void the slope-exactness argument).
//  2. The step is absorbable: the load at the ratio floor is under the
//     cap, otherwise no finite shed bound exists.
//  3. Genuine overload/underload outside the deadband each wave until the
//     cap is met — marginal steps that graze the deadband re-enter the
//     hold region and stop the clock early anyway.

// ShedBound returns the maximum waves the secant law needs to bring the
// measure back under the cap after a load step up that requires shedding
// deltaR of ratio: detect + re-anchor + travel at MaxStep per wave.
// deltaR is conservatively the full commanded range (pre-step ratio − Min)
// when the post-shed equilibrium ratio is unknown.
func ShedBound(deltaR float64) int {
	return 2 + travelWaves(deltaR, DefaultMaxStep)
}

// RecoverBound returns the maximum waves the secant law needs to climb
// deltaR of ratio back once the overload has ended AND the backlog has
// drained (the caller adds its drain-phase estimate): detect + re-anchor +
// travel at min(Gain·headroom, 1)·MaxStep per wave, where headroom = 1−u
// is the post-recovery capacity slack.
func RecoverBound(deltaR, headroom float64) int {
	climb := min(DefaultGain*headroom, 1)
	return 2 + travelWaves(deltaR, climb*DefaultMaxStep)
}

// travelWaves is ⌈deltaR/step⌉ with the degenerate cases pinned: no
// distance is zero waves, and a non-positive per-wave step never arrives.
func travelWaves(deltaR, step float64) int {
	if deltaR <= 0 {
		return 0
	}
	if step <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(deltaR/step - 1e-9))
}
