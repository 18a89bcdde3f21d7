package harness

import (
	"fmt"
	"io"
	"math"

	"repro/sig/adapt"
	"repro/sig/serve"
)

// SLOStudy measures the serving layer's SLO machinery against its paper
// contracts: the reaction-time bounds derived from the secant law's
// arithmetic (sig/adapt/bounds.go), the windowed quality floor, and the
// priority lane's latency separation. Requests are synthetic no-op bodies
// with declared costs — the study isolates the admission arithmetic the
// bounds are proven for (assumption 1: declared costs make the load signal
// affine in the ratio), so every number is bit-identical across runs.

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

// SLOReactionRow is one overload step's measured reaction against the
// derived bound.
type SLOReactionRow struct {
	Overload float64
	// PreRatio is the commanded ratio before the step; DeltaR = PreRatio
	// (conservative travel distance: the bound does not know the post-shed
	// equilibrium, so it assumes the full commanded range).
	PreRatio float64
	// ShedWaves is the first wave of the step whose measured load is back
	// at or under the cap; ShedBound the derived maximum (-1 = never, a
	// bound violation).
	ShedWaves, ShedBound int
	// Backlog is the queue depth when the step ends; DrainWaves the
	// modeled waves to work it off at the post-shed admission rate — the
	// caller-owned phase the recovery bound sits on top of.
	Backlog, DrainWaves int
	// RecoverWaves is how many waves past the step's end the command
	// climbed back within 0.05 of PreRatio; RecoverBound the derived
	// maximum including DrainWaves (-1 = never).
	RecoverWaves, RecoverBound int
}

// SLOResult is the outcome of the SLO study.
type SLOResult struct {
	// Reaction section: measured shed/recover waves vs the derived bounds,
	// one row per overload multiple. AllWithinBound is the headline claim.
	Reaction       []SLOReactionRow
	AllWithinBound bool

	// Quality-floor section: a sustained 4x overload under a
	// sloWindow-wave sloFloor. MinWindowMean is the worst full-window mean of the provided
	// ratio (the SLO: must hold the floor); MinProvided the worst single
	// wave (expected to dip below it — the floor is a long-run average);
	// FloorDips counts the waves that dipped.
	MinWindowMean float64
	MinProvided   float64
	FloorDips     int

	// Priority-lane section: premium (tier 1.0) vs bulk wave-latency
	// percentiles under the same sustained overload.
	PremiumCompleted int64
	PrioP50, PrioP99 int
	BulkP50, BulkP99 int
}

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

// SLOStudy runs the three SLO sections. Deterministic end to end: declared
// costs, no deadlines, every wave fired by the pump on a FakeClock its
// bodies never advance.
func SLOStudy() (SLOResult, error) {
	var res SLOResult
	for _, section := range []func(*SLOResult) error{sloReaction, sloFloorSection, sloLanes} {
		if err := section(&res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// sloReaction runs at the default load cap, serve.DefaultTargetLoad (1.0,
// full capacity), the setting the bounds' absorbability assumption is
// stated for: per overload, settle at the base rate, step the arrivals
// over-fold, then return to the base rate.
func sloReaction(res *SLOResult) error {
	res.AllWithinBound = true
	for _, over := range sloOverloads {
		row := SLOReactionRow{Overload: over, ShedWaves: -1, RecoverWaves: -1}
		if _, err := sloScenario().play(func(r *studyRun) error {
			for range 8 {
				r.wave(sloBasePerWave)
			}
			row.PreRatio = r.s.Ratio()
			row.ShedBound = adapt.ShedBound(row.PreRatio)
			for w := 1; w <= row.ShedBound+2; w++ {
				if rep := r.wave(int(sloBasePerWave * over)); row.ShedWaves < 0 && rep.Control.Measure <= 1.0 {
					row.ShedWaves = w
				}
			}
			row.Backlog = r.s.Depth()

			// The recovery bound owns only the climb; the backlog-drain phase
			// belongs to the caller's arithmetic: each post-step wave admits at
			// least budget/costAcc requests (full-cost worst case) and receives
			// sloBasePerWave fresh ones, for a net drain of base/util − 1 − base.
			base := float64(sloBasePerWave) // a variable: the division rounds as float64, as recorded
			netDrain := base/sloUtilization - 1 - base
			if row.Backlog > 0 {
				row.DrainWaves = int(math.Ceil(float64(row.Backlog) / netDrain))
			}
			row.RecoverBound = row.DrainWaves +
				adapt.RecoverBound(row.PreRatio, 1-sloUtilization)
			for w := 1; w <= row.RecoverBound+5 && row.RecoverWaves < 0; w++ {
				if r.wave(sloBasePerWave).Control.NextRatio >= row.PreRatio-0.05 {
					row.RecoverWaves = w
				}
			}
			return nil
		}, nil); err != nil {
			return err
		}
		if row.ShedWaves < 0 || row.ShedWaves > row.ShedBound ||
			row.RecoverWaves < 0 || row.RecoverWaves > row.RecoverBound {
			res.AllWithinBound = false
		}
		res.Reaction = append(res.Reaction, row)
	}
	return nil
}

func sloFloorSection(res *SLOResult) error {
	var provided []float64
	sc := sloScenario()
	sc.cfg.QualityFloor, sc.cfg.QualityWindow = sloFloor, sloWindow
	if _, err := sc.play(func(r *studyRun) error {
		for range 60 {
			if rep := r.wave(4 * sloBasePerWave); rep.Admitted > 0 {
				provided = append(provided, rep.Stats.ProvidedRatio)
			}
		}
		return nil
	}, nil); err != nil {
		return err
	}
	res.MinWindowMean, res.MinProvided = 1, 1
	for i, p := range provided {
		res.MinProvided = math.Min(res.MinProvided, p)
		if p < sloFloor {
			res.FloorDips++
		}
		if i+1 < sloWindow {
			continue
		}
		var sum float64
		for _, q := range provided[i+1-sloWindow : i+1] {
			sum += q
		}
		res.MinWindowMean = math.Min(res.MinWindowMean, sum/sloWindow)
	}
	return nil
}

func sloLanes(res *SLOResult) error {
	var prio, bulk []int
	sc := sloScenario()
	sc.cfg.PriorityAt = sloPriorityAt
	tot, err := sc.play(func(r *studyRun) error {
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
	res.PremiumCompleted = tot.Priority
	res.PrioP50, res.PrioP99 = percentiles(prio)
	res.BulkP50, res.BulkP99 = percentiles(bulk)
	return err
}

// PrintSLOStudy renders the study: the reaction table (measured vs bound),
// the floor section, and the lane percentiles the gating test reads.
func PrintSLOStudy(w io.Writer, r SLOResult) {
	fmt.Fprintf(w, "SLO study (base %d req/wave at %.0f%% utilization, declared costs)\n",
		sloBasePerWave, 100*sloUtilization)
	fmt.Fprintf(w, "%-9s %6s %6s %7s %8s %7s %8s %9s\n",
		"overload", "preR", "shed", "shedBnd", "backlog", "drain", "recover", "recovBnd")
	for _, row := range r.Reaction {
		fmt.Fprintf(w, "%-9s %6.2f %6d %7d %8d %7d %8d %9d\n",
			fmt.Sprintf("%gx", row.Overload), row.PreRatio, row.ShedWaves, row.ShedBound,
			row.Backlog, row.DrainWaves, row.RecoverWaves, row.RecoverBound)
	}
	fmt.Fprintf(w, "reaction: all measured reactions within the derived bounds: %v\n", r.AllWithinBound)
	fmt.Fprintf(w, "floor: window %d floor %.2f -> min window mean %.3f, min wave %.3f, %d waves dipped\n",
		sloWindow, sloFloor, r.MinWindowMean, r.MinProvided, r.FloorDips)
	fmt.Fprintf(w, "lanes: priority>=%.2f -> premium p50/p99 %d/%d waves vs bulk %d/%d (%d premium completed)\n",
		sloPriorityAt, r.PrioP50, r.PrioP99, r.BulkP50, r.BulkP99, r.PremiumCompleted)
}
