package harness

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/sig"
)

// table1Golden pins the benchmark-catalog output: sigbench table1 is part
// of the public surface and downstream tooling greps it.
const table1Golden = `Table 1: benchmark catalog
Benchmark     Domain                    Task decomposition                            Degradation                            Quality metric
Sobel         Image filter              one task per output row                       2-point gradient approximation         1/PSNR
DCT           Image compression         one task per block row and frequency band     drop high-frequency bands              1/PSNR
MC            Monte Carlo PDE solver    one task per random-walk batch                drop low-significance walk batches     relative error (%)
Kmeans        Clustering                one task per observation chunk per iteration  reuse previous chunk assignment        relative inertia error (%)
Jacobi        Iterative linear solver   one task per row block per sweep              update every other row of a block      relative L2 error (%)
Fluidanimate  Particle simulation (SPH) one task per particle chunk per time step     gravity-only steps at alternating ratio mean position error (%)
`

func TestTable1Golden(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	if b.String() != table1Golden {
		t.Errorf("Table1 output diverged from golden.\n--- got ---\n%s--- want ---\n%s",
			b.String(), table1Golden)
	}
}

func TestSpecByName(t *testing.T) {
	if _, ok := SpecByName("sobel"); !ok {
		t.Error("SpecByName should match case-insensitively")
	}
	if _, ok := SpecByName("nope"); ok {
		t.Error("SpecByName matched an unknown benchmark")
	}
	if len(Specs()) != 6 {
		t.Errorf("expected 6 specs, got %d", len(Specs()))
	}
}

// TestFig2SobelOrdering pins the paper's headline result on the smallest
// problem: at the Medium degree the significance-aware policies must save
// modeled energy over the accurate baseline and deliver better quality
// than loop perforation. Modeled energy is computed from declared task
// costs, so this is deterministic.
func TestFig2SobelOrdering(t *testing.T) {
	spec, _ := SpecByName("Sobel")
	inst := spec.Make(0.05)
	ref := inst.Reference()
	run := func(mode Mode) Measurement {
		m, err := Execute(spec, inst, ref, mode, Medium, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	acc := run(ModeAccurate)
	perf := run(ModePerforation)
	for _, mode := range []Mode{ModeGTB, ModeGTBMax, ModeLQH} {
		m := run(mode)
		if m.Joules >= acc.Joules {
			t.Errorf("%s: modeled energy %.4fJ did not beat Accurate %.4fJ", mode, m.Joules, acc.Joules)
		}
		if m.Quality >= perf.Quality {
			t.Errorf("%s: quality %.5f did not beat Perforation %.5f", mode, m.Quality, perf.Quality)
		}
		if m.Quality <= 0 {
			t.Errorf("%s: expected nonzero quality loss at Medium, got %.5f", mode, m.Quality)
		}
	}
	if acc.Quality != 0 {
		t.Errorf("accurate baseline should match the reference exactly, quality %.5f", acc.Quality)
	}
}

// TestPerforationInapplicable: the perforation baseline cannot express
// Kmeans and Fluidanimate (the paper's argument for the ratio clause).
func TestPerforationInapplicable(t *testing.T) {
	for _, name := range []string{"Kmeans", "Fluidanimate"} {
		spec, _ := SpecByName(name)
		inst := spec.Make(0.02)
		m, err := Execute(spec, inst, inst.Reference(), ModePerforation, Medium, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Applicable {
			t.Errorf("%s: perforation should be marked not applicable", name)
		}
	}
}

// TestInversionPct checks the Table 2 metric on hand-built logs.
func TestInversionPct(t *testing.T) {
	rec := func(s float64, acc bool, wave int) sig.DecisionRecord {
		return sig.DecisionRecord{Significance: s, Accurate: acc, Wave: wave}
	}
	// Oracle assignment: the two most significant of four are accurate.
	if got := inversionPct([]sig.DecisionRecord{
		rec(0.9, true, 0), rec(0.7, true, 0), rec(0.5, false, 0), rec(0.3, false, 0),
	}); got != 0 {
		t.Errorf("oracle log scored %.1f%% inversions, want 0", got)
	}
	// One of two accurate slots wasted on the least significant task.
	if got := inversionPct([]sig.DecisionRecord{
		rec(0.9, true, 0), rec(0.7, false, 0), rec(0.5, false, 0), rec(0.3, true, 0),
	}); got != 50 {
		t.Errorf("half-inverted log scored %.1f%%, want 50", got)
	}
	// Waves are scored independently: each wave is oracle-consistent
	// even though significances are reassigned across waves.
	if got := inversionPct([]sig.DecisionRecord{
		rec(0.9, true, 0), rec(0.7, false, 0),
		rec(0.3, true, 1), rec(0.1, false, 1),
	}); got != 0 {
		t.Errorf("per-wave oracle log scored %.1f%%, want 0", got)
	}
}

// TestAdaptiveStudyConverges is the acceptance gate of the adaptive
// controller: on the streaming-sobel workload the controller must converge
// to the PSNR setpoint within 8 waves of the mid-stream scene change, with
// the steady-state provided ratio within ±0.05 of the oracle static ratio
// — on both the initial scene (step response from fully accurate) and the
// post-disturbance scene. The study is fully deterministic (max-buffering
// decisions, declared costs, arithmetic control law), so exact thresholds
// are safe to assert.
func TestAdaptiveStudyConverges(t *testing.T) {
	res, err := AdaptiveStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range res.Segments {
		if seg.ConvergedAfter < 0 {
			t.Errorf("scene %d: controller never converged to within %.2f of oracle %.3f",
				seg.Scene, adaptiveTolerance, seg.OracleRatio)
			continue
		}
		if seg.ConvergedAfter > 8 {
			t.Errorf("scene %d: converged after %d waves, want <= 8", seg.Scene, seg.ConvergedAfter)
		}
		if d := math.Abs(seg.SteadyRatio - seg.OracleRatio); d > adaptiveTolerance {
			t.Errorf("scene %d: steady provided ratio %.3f is %.3f from oracle %.3f (tolerance %.2f)",
				seg.Scene, seg.SteadyRatio, d, seg.OracleRatio, adaptiveTolerance)
		}
		if seg.SteadyPSNR < adaptiveSetpoint {
			t.Errorf("scene %d: steady PSNR %.2f dB below the %.2f dB setpoint", seg.Scene, seg.SteadyPSNR, adaptiveSetpoint)
		}
	}
	// The disturbance must be real: the two scenes need distinct oracles,
	// otherwise the rejection half of the study tests nothing.
	if math.Abs(res.Segments[0].OracleRatio-res.Segments[1].OracleRatio) < 0.1 {
		t.Errorf("scene oracles %.3f and %.3f too close — the scene change is not a disturbance",
			res.Segments[0].OracleRatio, res.Segments[1].OracleRatio)
	}

	// Energy-capped kmeans stream: the budget must be respected at steady
	// state while the ratio sits near the analytic oracle.
	if n := len(res.KmeansRows); n == 0 {
		t.Fatal("kmeans stream recorded no waves")
	}
	last := res.KmeansRows[len(res.KmeansRows)-1]
	if last.Joules > res.KmeansBudget*(1+1e-9) {
		t.Errorf("kmeans steady wave energy %.6gJ exceeds the %.6gJ budget", last.Joules, res.KmeansBudget)
	}
	if d := math.Abs(last.Provided - res.KmeansOracleRatio); d > 0.05 {
		t.Errorf("kmeans steady ratio %.3f is %.3f from the analytic oracle %.2f", last.Provided, d, res.KmeansOracleRatio)
	}
}

// TestAdaptiveStudyDeterministic: two runs of the study must agree exactly
// — the controller's replay contract holds end to end through the harness.
func TestAdaptiveStudyDeterministic(t *testing.T) {
	a, err := AdaptiveStudy()
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdaptiveStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("sobel wave %d diverged between runs:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
	for i := range a.KmeansRows {
		if a.KmeansRows[i] != b.KmeansRows[i] {
			t.Errorf("kmeans wave %d diverged between runs:\n%+v\n%+v", i, a.KmeansRows[i], b.KmeansRows[i])
		}
	}
}

// TestFig1WritesMosaic smoke-tests the Figure 1 path end to end.
func TestFig1WritesMosaic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.pgm")
	psnrs, err := Fig1(path, Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(psnrs) != 3 {
		t.Fatalf("expected 3 PSNR entries, got %v", psnrs)
	}
	if !(psnrs[Mild] > psnrs[Medium] && psnrs[Medium] > psnrs[Aggressive]) {
		t.Errorf("PSNR should fall with aggressiveness: %v", psnrs)
	}
}

// TestKernelQualityGoldens runs every kernel of the catalog at the size the
// repository's benchmark uses (scale 0.25, Medium degree, 2 workers). The
// accurate policy must reproduce a fresh instance's sequential reference, and
// GTB(max) — which ranks the whole wave, so its choice does not depend on
// scheduling — must score exactly the recorded quality: any change to a
// kernel's arithmetic or to the policy's selection moves it. The values are
// the ones benchmark/paper_apps.go checks on every run.
func TestKernelQualityGoldens(t *testing.T) {
	const (
		scale = 0.25
		tol   = 1e-9
	)
	goldenGTBMax := map[string]float64{
		"Sobel":        0.051024944924623478,
		"DCT":          0.028432071695553202,
		"MC":           0.36203706921209305,
		"Kmeans":       0.00065951439245172079,
		"Jacobi":       2.9740808730601911,
		"Fluidanimate": 0.20554894847242236,
	}
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			golden, ok := goldenGTBMax[spec.Name]
			if !ok {
				t.Fatal("no golden quality recorded")
			}
			ref := spec.Make(scale).Reference()
			inst := spec.Make(scale)
			opt := RunOptions{Workers: 2}
			m, err := Execute(spec, inst, ref, ModeAccurate, Medium, opt)
			if err != nil {
				t.Fatal(err)
			}
			if m.Quality > tol {
				t.Errorf("%s quality %g against the sequential reference, want 0", ModeAccurate, m.Quality)
			}
			m, err = Execute(spec, inst, ref, ModeGTBMax, Medium, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(m.Quality-golden) > tol*math.Abs(golden) {
				t.Errorf("%s quality %.17g, golden %.17g", ModeGTBMax, m.Quality, golden)
			}
		})
	}
}
