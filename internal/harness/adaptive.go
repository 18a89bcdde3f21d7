package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/bench/kmeans"
	"repro/internal/bench/sobel"
	"repro/internal/imaging"
	"repro/sig"
	"repro/sig/adapt"
)

// AdaptiveWave is one wave of an adaptive stream's recorded trajectory: the
// scene it ran on (sobel stream only), the wave's telemetry and the
// controller's step on it. On the sobel stream Control.Measure is the
// frame's PSNR.
type AdaptiveWave struct {
	Scene   int
	Stats   sig.WaveStats
	Control adapt.Sample
}

// AdaptiveSegment summarizes one steady scene of the sobel stream.
type AdaptiveSegment struct {
	Scene     int
	StartWave int
	// OracleRatio is the lowest static ratio whose PSNR meets the
	// setpoint on this scene (offline bisection).
	OracleRatio float64
	// ConvergedAfter is how many waves after the segment began the
	// provided ratio entered — and stayed within — ±adaptiveTolerance of
	// the oracle; -1 means it never settled.
	ConvergedAfter int
	// SteadyRatio and SteadyPSNR are the segment's final-wave provided
	// ratio and quality.
	SteadyRatio float64
	SteadyPSNR  float64
}

// AdaptiveResult is the outcome of the adaptive-controller study.
type AdaptiveResult struct {
	// Sobel step-response + disturbance-rejection stream (TargetQuality).
	Rows     []AdaptiveWave
	Segments [2]AdaptiveSegment

	// Kmeans energy-capped stream (TargetLoad on the wave's joules).
	KmeansBudget float64
	// KmeansOracleRatio is the analytic ratio at which the wave energy
	// (linear in the accurate fraction under declared costs) meets the
	// budget exactly.
	KmeansOracleRatio float64
	KmeansRows        []AdaptiveWave
}

const (
	// adaptiveSetpoint is the sobel stream's PSNR target in dB, and
	// adaptiveTolerance the steady-state band around the oracle static ratio
	// the study scores convergence against.
	adaptiveSetpoint  = 16.0
	adaptiveTolerance = 0.05
	// The pinned streams: adaptiveWaves sobel waves with the scene change
	// at adaptiveChangeAt, then adaptiveKmeansWaves kmeans waves. The
	// runtimes have GOMAXPROCS workers; max buffering decides the same at
	// any count.
	adaptiveWaves, adaptiveChangeAt = 24, 12
	adaptiveKmeansWaves             = 12
)

// AdaptiveStudy runs the closed-loop evaluation of sig/adapt:
//
//   - A streaming sobel workload under a TargetQuality controller. The
//     stream starts fully accurate, the controller walks the ratio down to
//     the cheapest point holding the PSNR setpoint (step response), and at
//     adaptiveChangeAt the scene switches to one with texture the
//     approximation cannot reproduce — the controller must re-converge onto
//     the new scene's oracle ratio (disturbance rejection).
//   - A streaming kmeans workload under a TargetLoad controller whose
//     measure is the wave's modeled joules: it caps joules per wave while
//     maximizing the ratio.
//
// Everything is deterministic: GTB max-buffering decisions, declared task
// costs and a pure-arithmetic control law.
func AdaptiveStudy() (AdaptiveResult, error) {
	var res AdaptiveResult
	if err := adaptiveSobel(&res); err != nil {
		return res, err
	}
	if err := adaptiveKmeans(&res); err != nil {
		return res, err
	}
	return res, nil
}

// sobelScenes defines the stream's two scenes: the default synthetic scene,
// then a high-detail one (horizontal texture + stronger speckle) whose
// quality-vs-ratio curve sits well below the first.
var sobelScenes = [2]struct {
	seed   int64
	detail float64
}{{1, 0}, {2, 0.75}}

func adaptiveSobel(res *AdaptiveResult) error {
	p := sobel.DefaultParams()
	p.W, p.H = scaled(p.W, studyScale, 64), scaled(p.H, studyScale, 64)
	app := sobel.New(p)
	app.SetScene(sobelScenes[0].seed, sobelScenes[0].detail)
	ref := app.Sequential()

	oracle, err := sobelOracleRatio(app, ref)
	if err != nil {
		return err
	}
	res.Segments[0] = AdaptiveSegment{Scene: 0, StartWave: 0, OracleRatio: oracle}

	out := imaging.NewImage(p.W, p.H)
	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetQuality,
		Setpoint:  adaptiveSetpoint,
		Probe:     func() float64 { return imaging.PSNR(ref, out) },
	})
	if err != nil {
		return err
	}
	rt, err := sig.New(sig.Config{Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		return err
	}
	defer rt.Close()
	grp := rt.Group("sobel", 1.0) // step response: start fully accurate

	scene := 0
	for w := range adaptiveWaves {
		if w == adaptiveChangeAt {
			scene = 1
			app.SetScene(sobelScenes[1].seed, sobelScenes[1].detail)
			ref = app.Sequential()
			oracle, err := sobelOracleRatio(app, ref)
			if err != nil {
				return err
			}
			res.Segments[1] = AdaptiveSegment{Scene: 1, StartWave: w, OracleRatio: oracle}
		}
		app.SubmitFrame(rt, grp, out)
		ws := rt.WaitPhase(grp)
		res.Rows = append(res.Rows, AdaptiveWave{Scene: scene, Stats: ws, Control: ctl.Observe(grp, ws)})
	}

	scoreSegment(&res.Segments[0], res.Rows[:adaptiveChangeAt])
	scoreSegment(&res.Segments[1], res.Rows[adaptiveChangeAt:])
	return nil
}

// sobelOracleRatio bisects for the lowest static ratio whose PSNR against
// ref meets adaptiveSetpoint on the app's current scene. PSNR is monotone in
// the ratio under max buffering (larger ratios only grow the accurate set),
// so bisection is exact to the returned precision.
func sobelOracleRatio(app *sobel.App, ref *imaging.Image) (float64, error) {
	meets := func(ratio float64) (bool, error) {
		rt, err := sig.New(sig.Config{Policy: sig.PolicyGTBMaxBuffer})
		if err != nil {
			return false, err
		}
		defer rt.Close()
		out := app.Run(rt, ratio)
		return imaging.PSNR(ref, out) >= adaptiveSetpoint, nil
	}
	lo, hi := 0.0, 1.0 // PSNR(1.0) = +Inf always meets
	for i := 0; i < 20; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// scoreSegment fills the convergence metrics: the first wave from which the
// provided ratio stays within adaptiveTolerance of the oracle through the
// segment's end.
func scoreSegment(seg *AdaptiveSegment, rows []AdaptiveWave) {
	if len(rows) == 0 {
		seg.ConvergedAfter = -1
		return
	}
	seg.SteadyRatio = rows[len(rows)-1].Stats.ProvidedRatio
	seg.SteadyPSNR = rows[len(rows)-1].Control.Measure
	converged := -1
	for i := len(rows) - 1; i >= 0; i-- {
		if math.Abs(rows[i].Stats.ProvidedRatio-seg.OracleRatio) > adaptiveTolerance {
			break
		}
		converged = i
	}
	seg.ConvergedAfter = converged
}

func adaptiveKmeans(res *AdaptiveResult) error {
	p := kmeans.DefaultParams()
	p.N = scaled(p.N, studyScale, p.K*16)
	p.Chunk = max(p.N/64, 64)
	app := kmeans.New(p)

	// Wave energy under declared costs is linear in the accurate fraction
	// between the kernel's all-approximate and all-accurate wave costs.
	// Cap the budget 45% of the way up, so the analytic oracle ratio is
	// 0.45.
	const targetFraction = 0.45
	costAcc, costApx := app.WaveCosts()
	jAcc := sig.DefaultActiveWatts * costAcc * 1e-9
	jApx := sig.DefaultActiveWatts * costApx * 1e-9
	res.KmeansBudget = jApx + targetFraction*(jAcc-jApx)
	res.KmeansOracleRatio = targetFraction

	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetLoad,
		Budget:    res.KmeansBudget,
		Measure:   func(ws sig.WaveStats) float64 { return ws.Joules },
	})
	if err != nil {
		return err
	}
	rt, err := sig.New(sig.Config{Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		return err
	}
	defer rt.Close()
	grp := rt.Group("kmeans", 1.0)
	app.RunStream(rt, grp, adaptiveKmeansWaves, func(ws sig.WaveStats) {
		res.KmeansRows = append(res.KmeansRows, AdaptiveWave{Stats: ws, Control: ctl.Observe(grp, ws)})
	})
	return nil
}

// PrintAdaptiveStudy renders the study: the wave-by-wave tables, an ASCII
// step-response plot of the ratio trajectory and the convergence summary.
func PrintAdaptiveStudy(w io.Writer, r AdaptiveResult) {
	fmt.Fprintf(w, "Adaptive study: streaming sobel under a TargetQuality controller (setpoint %.1f dB)\n", adaptiveSetpoint)
	fmt.Fprintf(w, "%-5s %-6s %6s %6s %8s %10s %8s\n", "wave", "scene", "req%", "prov%", "PSNR", "energy", "next%")
	for _, row := range r.Rows {
		ws := row.Stats
		fmt.Fprintf(w, "%-5d %-6d %6.1f %6.1f %8.2f %9.4fJ %8.1f\n",
			ws.Wave, row.Scene, 100*ws.RequestedRatio, 100*ws.ProvidedRatio, row.Control.Measure, ws.Joules, 100*row.Control.NextRatio)
	}
	fmt.Fprintln(w)
	plotRatioTrajectory(w, r)
	fmt.Fprintln(w)
	for _, seg := range r.Segments {
		conv := "never"
		if seg.ConvergedAfter >= 0 {
			conv = fmt.Sprintf("%d waves", seg.ConvergedAfter)
		}
		fmt.Fprintf(w, "scene %d: oracle static ratio %.3f, converged within +/-%.2f after %s, steady prov %.3f at %.2f dB\n",
			seg.Scene, seg.OracleRatio, adaptiveTolerance, conv, seg.SteadyRatio, seg.SteadyPSNR)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Adaptive study: streaming kmeans under a TargetLoad controller on the wave's joules (budget %.4f J/wave, oracle ratio %.2f)\n",
		r.KmeansBudget, r.KmeansOracleRatio)
	fmt.Fprintf(w, "%-5s %6s %6s %10s %8s\n", "wave", "req%", "prov%", "energy", "next%")
	for _, row := range r.KmeansRows {
		ws := row.Stats
		fmt.Fprintf(w, "%-5d %6.1f %6.1f %9.4fJ %8.1f\n",
			ws.Wave, 100*ws.RequestedRatio, 100*ws.ProvidedRatio, ws.Joules, 100*row.Control.NextRatio)
	}
}

// plotRatioTrajectory draws the provided-ratio step response as a small
// ASCII chart (rows = ratio bins, columns = waves), with the per-segment
// oracle ratio marked '-' and the scene change '|'.
func plotRatioTrajectory(w io.Writer, r AdaptiveResult) {
	const levels = 10
	fmt.Fprintln(w, "provided ratio vs wave ('*' trajectory, '-' oracle, '|' scene change):")
	for lvl := levels; lvl >= 0; lvl-- {
		ratio := float64(lvl) / levels
		var b strings.Builder
		fmt.Fprintf(&b, "%4.1f ", ratio)
		for i, row := range r.Rows {
			seg := r.Segments[row.Scene]
			ch := byte(' ')
			if i == seg.StartWave && row.Scene == 1 {
				ch = '|'
			}
			if math.Abs(seg.OracleRatio-ratio) <= 0.5/levels {
				ch = '-'
			}
			if math.Abs(row.Stats.ProvidedRatio-ratio) <= 0.5/levels {
				ch = '*'
			}
			b.WriteByte(ch)
		}
		fmt.Fprintln(w, b.String())
	}
}
