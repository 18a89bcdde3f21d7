package harness

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/sig/adapt"
	"repro/sig/serve"
)

// The study's fixed configuration.
const (
	// Declared request costs of the synthetic service: degraded work is
	// ~13% of accurate work, like the sobel kernels.
	sloCostAcc = 30_000.0
	sloCostDeg = 4_000.0
	// sloBasePerWave is the light-load arrival rate; the wave budget is
	// sized so that rate fills sloUtilization of capacity at full quality,
	// and 1−sloUtilization is the recovery bound's headroom term.
	sloBasePerWave = 8
	sloUtilization = 0.6
	// sloWindow and sloFloor parameterize the quality-floor section.
	sloWindow = 8
	sloFloor  = 0.5
	// sloPriorityAt is the lane section's premium threshold: the
	// every-tenth tier-1.0 requests.
	sloPriorityAt = 0.95
)

// sloOverloads are the step multiples the reaction section measures.
var sloOverloads = [...]float64{2, 4, 6}

// sloRequest is the i-th synthetic request: the study tier spread, no-op
// bodies, declared costs.
func sloRequest(i int) serve.Request {
	return serve.Request{
		Significance: serveTier(i),
		Handler:      func() {},
		Degraded:     func() {},
		CostAccurate: sloCostAcc,
		CostDegraded: sloCostDeg,
	}
}

// sloScenario is a section's frozen server and its stream of sloRequests:
// capacity sized for sloBasePerWave at the study utilization, a queue deep
// enough that steps shed quality, not requests. A section sets its own SLO.
func sloScenario() scenario {
	return scenario{
		cfg:    serve.Config{Workers: 2, QueueLimit: 64 * sloBasePerWave},
		budget: sloBasePerWave * sloCostAcc / sloUtilization,
		stream: sloRequest,
	}
}

// SLOStudy prints the serving layer's SLO machinery against its paper
// contracts and fails on a broken one: the reaction-time bounds derived from
// the secant law's arithmetic (sig/adapt/bounds.go), the windowed quality
// floor, and the priority lane's latency separation. Requests are synthetic
// no-op bodies with declared costs — the study isolates the admission
// arithmetic the bounds are proven for (assumption 1: declared costs make
// the load signal affine in the ratio) — and every wave is fired by the pump
// on a FakeClock its bodies never advance, so every number is bit-identical
// across runs.
func SLOStudy(w io.Writer) error { return sloStudy(&studyLog{w: w, workers: 1}) }

func sloStudy(l *studyLog) error {
	fmt.Fprintf(l.w, "SLO study (base %d req/wave at %.0f%% utilization, declared costs)\n",
		sloBasePerWave, 100*sloUtilization)
	if err := errors.Join(sloReaction(l), sloFloorSection(l), sloLanes(l)); err != nil {
		return fmt.Errorf("slo study: %w", err)
	}
	return nil
}

// sloReaction runs at the default load cap, serve.DefaultTargetLoad (1.0,
// full capacity), the setting the bounds' absorbability assumption is
// stated for: per overload, settle at the base rate, step the arrivals
// over-fold, then return to the base rate. Its table holds per step the
// pre-step ratio (the bounds' conservative travel distance, the full
// commanded range), the first step wave whose load is back under the cap,
// the queue depth at the step's end and the modeled waves to drain it, and
// the waves until the command is back within 0.05 of the pre-step ratio
// (-1 = never), each wave count against its derived bound.
func sloReaction(l *studyLog) error {
	table := fmt.Sprintf("%-9s %6s %6s %7s %8s %7s %8s %9s\n",
		"overload", "preR", "shed", "shedBnd", "backlog", "drain", "recover", "recovBnd")
	var errs []error
	for _, over := range sloOverloads {
		fmt.Fprintf(l.w, "reaction %gx: 8 waves at the base rate, the step to its shed bound + 2, the base rate until recovered\n", over)
		var pre float64
		shed, shedBound, backlog, drain, recover, recoverBound := -1, 0, 0, 0, -1, 0
		if _, _, err := sloScenario().play(l, func(r *studyRun) error {
			for range 8 {
				r.wave(sloBasePerWave)
			}
			pre = r.s.Ratio()
			shedBound = adapt.ShedBound(pre)
			for w := 1; w <= shedBound+2; w++ {
				if rep := r.wave(int(sloBasePerWave * over)); shed < 0 && rep.Control.Measure <= 1.0 {
					shed = w
				}
			}
			backlog = r.s.Depth()

			// The recovery bound owns only the climb; the backlog-drain phase
			// belongs to the caller's arithmetic: each post-step wave admits at
			// least budget/costAcc requests (full-cost worst case) and receives
			// sloBasePerWave fresh ones, for a net drain of base/util − 1 − base.
			base := float64(sloBasePerWave) // a variable: the division rounds as float64, as recorded
			netDrain := base/sloUtilization - 1 - base
			if backlog > 0 {
				drain = int(math.Ceil(float64(backlog) / netDrain))
			}
			recoverBound = drain + adapt.RecoverBound(pre, 1-sloUtilization)
			for w := 1; w <= recoverBound+5 && recover < 0; w++ {
				if r.wave(sloBasePerWave).Control.NextRatio >= pre-0.05 {
					recover = w
				}
			}
			return nil
		}, nil); err != nil {
			return err
		}
		errs = append(errs,
			broken(shed >= 1 && shed <= shedBound, "overload %gx: shed in %d waves, bound %d", over, shed, shedBound),
			broken(recover >= 1 && recover <= recoverBound, "overload %gx: recovered in %d waves, bound %d",
				over, recover, recoverBound))
		table += fmt.Sprintf("%-9s %6.2f %6d %7d %8d %7d %8d %9d\n",
			fmt.Sprintf("%gx", over), pre, shed, shedBound, backlog, drain, recover, recoverBound)
	}
	io.WriteString(l.w, table)
	err := errors.Join(errs...)
	fmt.Fprintf(l.w, "reaction: all measured reactions within the derived bounds: %v\n", err == nil)
	return err
}

// sloFloorSection plays a sustained 4x overload under a sloWindow-wave
// sloFloor: every full window's mean provided ratio must hold the floor (to
// 0.05), while single waves still dip below it — the floor is a long-run
// average. Its window means are the study's own, over the waves that
// admitted a request: the independent reference the controller's
// Control.WindowMean must match.
func sloFloorSection(l *studyLog) error {
	fmt.Fprintf(l.w, "floor: window %d floor %.2f under a sustained 4x overload, 60 waves\n", sloWindow, sloFloor)
	sc := sloScenario()
	sc.cfg.QualityFloor, sc.cfg.QualityWindow = sloFloor, sloWindow
	rows, _, err := sc.play(l, func(r *studyRun) error {
		for range 60 {
			r.wave(4 * sloBasePerWave)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	var served []waveRow
	for _, row := range rows {
		if row.Admitted > 0 {
			served = append(served, row)
		}
	}
	minMean, minProvided, dips := 1.0, 1.0, 0
	var errs []error
	for i, row := range served {
		p := row.Stats.ProvidedRatio
		minProvided = math.Min(minProvided, p)
		if p < sloFloor {
			dips++
		}
		if i+1 < sloWindow {
			continue
		}
		var sum float64
		for _, q := range served[i+1-sloWindow : i+1] {
			sum += q.Stats.ProvidedRatio
		}
		minMean = math.Min(minMean, sum/sloWindow)
		errs = append(errs, broken(math.Abs(sum/sloWindow-row.Control.WindowMean) < 1e-9,
			"wave %d: the controller's window mean %.6f is not the study's own %.6f", row.Stats.Wave, row.Control.WindowMean, sum/sloWindow))
	}
	fmt.Fprintf(l.w, "floor: window %d floor %.2f -> min window mean %.3f, min wave %.3f, %d waves dipped\n",
		sloWindow, sloFloor, minMean, minProvided, dips)
	return errors.Join(append(errs,
		broken(minMean >= sloFloor-0.05, "min window mean %.3f below floor %.2f", minMean, sloFloor),
		broken(dips > 0, "no wave dipped below the floor: the window floor is acting per-wave"))...)
}

// sloLanes plays the same sustained overload with a priority lane: the
// premium (tier 1.0) requests' tail wave latency must not exceed bulk's.
func sloLanes(l *studyLog) error {
	fmt.Fprintf(l.w, "lanes: priority>=%.2f under a sustained 4x overload, 24 waves\n", sloPriorityAt)
	var prio, bulk []int
	sc := sloScenario()
	sc.cfg.PriorityAt = sloPriorityAt
	_, tot, err := sc.play(l, func(r *studyRun) error {
		for range 24 {
			r.wave(4 * sloBasePerWave)
		}
		return nil
	}, func(i, waves int) {
		if serveTier(i) >= sloPriorityAt {
			prio = append(prio, waves)
		} else {
			bulk = append(bulk, waves)
		}
	})
	if err != nil {
		return err
	}
	prioP50, prioP99 := percentiles(prio)
	bulkP50, bulkP99 := percentiles(bulk)
	fmt.Fprintf(l.w, "lanes: priority>=%.2f -> premium p50/p99 %d/%d waves vs bulk %d/%d (%d premium completed)\n",
		sloPriorityAt, prioP50, prioP99, bulkP50, bulkP99, tot.Priority)
	return errors.Join(
		broken(prioP99 <= bulkP99, "premium p99 %d waves above bulk p99 %d: the priority lane is not bypassing the backlog",
			prioP99, bulkP99),
		broken(tot.Priority > 0, "no premium request completed"))
}
