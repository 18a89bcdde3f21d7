// Package harness is the evaluation layer: it maps every figure and table of
// the paper's evaluation (section 4) onto the Go reproduction, exposing a
// benchmark Spec registry, a policy/degree Execute primitive, the
// Table1/Fig1/Fig2/Fig3/Table2 generators plus the GTB window sweep that
// cmd/sigbench drives, and the deterministic studies of the layers built on
// the runtime.
//
// A study (Studies) is one pinned configuration: it takes no settings, and
// its golden is its whole output. The three serving studies — serve, slo and
// pace — are sections, each a scenario (a server config, a request stream, a
// per-wave arrival step) played by one runner, scenario.play: the
// production pump fires every wave in fake time (serve.FakeClock.Run), and
// nothing here fires a wave or advances a clock between waves itself.
//
// Everything the package prints is modeled — energy from declared task
// costs, quality against a reference, ratios and counts — so it is the same
// bytes on every run. The one wall-clock read is Execute's Measurement.Wall,
// which only the benchmark ledger (go run ./benchmark) reads; Figure 4, the
// runtime-overhead experiment, lives there. siglint enforces the rest:
//
//siglint:deterministic
package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bench/dct"
	"repro/internal/bench/fluidanimate"
	"repro/internal/bench/jacobi"
	"repro/internal/bench/kmeans"
	"repro/internal/bench/mc"
	"repro/internal/bench/sobel"
	"repro/internal/imaging"
	"repro/sig"
)

// Mode names an accuracy policy of the runtime in evaluation output.
type Mode string

const (
	ModeAccurate    Mode = "Accurate"
	ModeGTB         Mode = "GTB"
	ModeGTBMax      Mode = "GTB(max)"
	ModeLQH         Mode = "LQH"
	ModePerforation Mode = "Perforation"
)

// Modes lists every mode in canonical evaluation order.
func Modes() []Mode {
	return []Mode{ModeAccurate, ModeGTB, ModeGTBMax, ModeLQH, ModePerforation}
}

// PolicyKind maps the mode onto the runtime policy it exercises.
func (m Mode) PolicyKind() (sig.PolicyKind, error) {
	switch m {
	case ModeAccurate:
		return sig.PolicyAccurate, nil
	case ModeGTB:
		return sig.PolicyGTB, nil
	case ModeGTBMax:
		return sig.PolicyGTBMaxBuffer, nil
	case ModeLQH:
		return sig.PolicyLQH, nil
	case ModePerforation:
		return sig.PolicyPerforation, nil
	}
	return 0, fmt.Errorf("harness: unknown mode %q", string(m))
}

// Degree is an approximation aggressiveness level; each benchmark maps
// degrees to concrete accuracy ratios in its Spec.
type Degree string

const (
	Mild       Degree = "Mild"
	Medium     Degree = "Medium"
	Aggressive Degree = "Aggressive"
)

// Degrees lists the degrees in canonical order.
func Degrees() []Degree { return []Degree{Mild, Medium, Aggressive} }

// Instance is one sized benchmark problem, ready to run.
type Instance interface {
	// Reference computes (and may cache) the fully accurate output.
	Reference() any
	// Run executes the benchmark on rt asking for the given accuracy
	// ratio and returns its output.
	Run(rt *sig.Runtime, ratio float64) any
	// Quality evaluates the benchmark's lower-is-better quality metric
	// of out against ref.
	Quality(ref, out any) float64
	// Tasks estimates the tasks submitted per run (or per wave, for
	// iterative benchmarks).
	Tasks() int
}

// Spec describes one benchmark of the catalog (the rows of Table 1).
type Spec struct {
	Name              string
	Domain            string
	TaskDecomposition string
	Degradation       string
	QualityMetric     string
	// Perforatable reports whether the loop-perforation baseline can
	// express this benchmark's approximation pattern at all.
	Perforatable bool
	// Ratios maps each degree to the accuracy ratio it requests.
	Ratios map[Degree]float64
	// Make sizes an instance; scale 1.0 is evaluation scale.
	Make func(scale float64) Instance
}

// Options configures the multi-benchmark experiment drivers.
type Options struct {
	// Scale in (0,1]: 1.0 reproduces evaluation-size problems.
	Scale float64
	// Workers for the runtime (0 = GOMAXPROCS).
	Workers int
	// Benches restricts the benchmark subset (nil = all).
	Benches []string
}

// scale is o.Scale, or evaluation scale when it is unset (or outside (0,1],
// which sigbench rejects at its flag).
func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1
	}
	return o.Scale
}

// scaled returns round(base*scale) clamped below by lo.
func scaled(base int, scale float64, lo int) int {
	return max(int(math.Round(float64(base)*scale)), lo)
}

// specs returns the registry in canonical (Table 1) order.
func specs() []Spec {
	return []Spec{
		{
			Name:              "Sobel",
			Domain:            "Image filter",
			TaskDecomposition: "one task per output row",
			Degradation:       "2-point gradient approximation",
			QualityMetric:     "1/PSNR",
			Perforatable:      true,
			Ratios:            map[Degree]float64{Mild: 0.8, Medium: 0.3, Aggressive: 0.0},
			Make: func(scale float64) Instance {
				p := sobel.DefaultParams()
				// The floor keeps task bodies heavy enough that modeled
				// energy is dominated by busy time, not wall jitter.
				p.W, p.H = scaled(p.W, scale, 256), scaled(p.H, scale, 256)
				a := sobel.New(p)
				return &instance[*imaging.Image]{run: a.Run, seq: a.Sequential, quality: a.Quality, tasks: a.Tasks}
			},
		},
		{
			Name:              "DCT",
			Domain:            "Image compression",
			TaskDecomposition: "one task per block row and frequency band",
			Degradation:       "drop high-frequency bands",
			QualityMetric:     "1/PSNR",
			Perforatable:      true,
			Ratios:            map[Degree]float64{Mild: 0.7, Medium: 0.4, Aggressive: 0.15},
			Make: func(scale float64) Instance {
				p := dct.DefaultParams()
				p.W, p.H = scaled(p.W, scale, 256), scaled(p.H, scale, 256)
				a := dct.New(p)
				return &instance[*imaging.Image]{run: a.Run, seq: a.Sequential, quality: a.Quality, tasks: a.Tasks}
			},
		},
		{
			Name:              "MC",
			Domain:            "Monte Carlo PDE solver",
			TaskDecomposition: "one task per random-walk batch",
			Degradation:       "drop low-significance walk batches",
			QualityMetric:     "relative error (%)",
			Perforatable:      true,
			Ratios:            map[Degree]float64{Mild: 0.8, Medium: 0.5, Aggressive: 0.25},
			Make: func(scale float64) Instance {
				p := mc.DefaultParams()
				p.Points = scaled(p.Points, scale, 8)
				p.WalksPerBatch = scaled(p.WalksPerBatch, scale, 50)
				a := mc.New(p)
				return &instance[[]float64]{run: a.Run, seq: a.Sequential, quality: a.Quality, tasks: a.Tasks}
			},
		},
		{
			Name:              "Kmeans",
			Domain:            "Clustering",
			TaskDecomposition: "one task per observation chunk per iteration",
			Degradation:       "reuse previous chunk assignment",
			QualityMetric:     "relative inertia error (%)",
			Perforatable:      false,
			Ratios:            map[Degree]float64{Mild: 0.8, Medium: 0.6, Aggressive: 0.4},
			Make: func(scale float64) Instance {
				p := kmeans.DefaultParams()
				p.N = scaled(p.N, scale, p.K*16)
				p.Chunk = max(p.N/64, 64)
				a := kmeans.New(p)
				return &instance[kmeans.Result]{run: a.Run, seq: a.Sequential, quality: a.Quality, tasks: a.Tasks}
			},
		},
		{
			Name:              "Jacobi",
			Domain:            "Iterative linear solver",
			TaskDecomposition: "one task per row block per sweep",
			Degradation:       "update every other row of a block",
			QualityMetric:     "relative L2 error (%)",
			Perforatable:      true,
			Ratios:            map[Degree]float64{Mild: 0.8, Medium: 0.5, Aggressive: 0.2},
			Make: func(scale float64) Instance {
				p := jacobi.DefaultParams()
				p.N = scaled(p.N, scale, 64)
				a := jacobi.New(p)
				return &instance[[]float64]{run: a.Run, seq: a.Sequential, quality: a.Quality, tasks: a.Tasks}
			},
		},
		{
			Name:              "Fluidanimate",
			Domain:            "Particle simulation (SPH)",
			TaskDecomposition: "one task per particle chunk per time step",
			Degradation:       "gravity-only steps at alternating ratio",
			QualityMetric:     "mean position error (%)",
			Perforatable:      false,
			Ratios:            map[Degree]float64{Mild: 0.5, Medium: 0.25, Aggressive: 0.125},
			Make: func(scale float64) Instance {
				p := fluidanimate.DefaultParams()
				p.N = scaled(p.N, scale, 256)
				a := fluidanimate.New(p)
				return &instance[fluidanimate.State]{run: a.RunRatio, seq: a.Sequential, quality: a.Quality, tasks: a.Tasks}
			},
		},
	}
}

// Specs returns the full registry.
func Specs() []Spec { return specs() }

// SpecByName finds a benchmark case-insensitively.
func SpecByName(name string) (Spec, bool) {
	for _, s := range specs() {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Spec{}, false
}

// subset resolves opt.Benches against the registry, defaulting to all.
func subset(opt Options) ([]Spec, error) {
	all := specs()
	if len(opt.Benches) == 0 {
		return all, nil
	}
	var out []Spec
	for _, name := range opt.Benches {
		s, ok := SpecByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// instance is the one Instance implementation: a kernel's own method values
// behind the untyped interface, with T the kernel's output type. ref caches
// the sequential reference, which several degrees and policies share.
type instance[T any] struct {
	run     func(rt *sig.Runtime, ratio float64) T
	seq     func() T
	quality func(ref, out T) float64
	tasks   func() int
	ref     *T
}

func (s *instance[T]) Reference() any {
	if s.ref == nil {
		r := s.seq()
		s.ref = &r
	}
	return *s.ref
}
func (s *instance[T]) Run(rt *sig.Runtime, ratio float64) any { return s.run(rt, ratio) }
func (s *instance[T]) Quality(ref, out any) float64           { return s.quality(ref.(T), out.(T)) }
func (s *instance[T]) Tasks() int                             { return s.tasks() }
