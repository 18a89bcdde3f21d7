package harness

import (
	"time"

	"repro/sig"
)

// RunOptions configures a single Execute call.
type RunOptions struct {
	// Workers for the runtime (0 = GOMAXPROCS).
	Workers int
	// GTBWindow overrides the GTB buffer window (0 = runtime default).
	GTBWindow int
	// RecordDecisions collects the per-task decision log into the
	// Measurement (needed by the Table 2 analysis).
	RecordDecisions bool
}

// Measurement is the outcome of executing one (benchmark, mode, degree)
// cell of the evaluation.
type Measurement struct {
	Bench  string
	Mode   Mode
	Degree Degree
	// Applicable is false when the mode cannot express the benchmark's
	// approximation pattern (perforation on Kmeans and Fluidanimate).
	Applicable bool
	// Wall is the measured execution time, Joules the modeled energy and
	// Quality the benchmark's lower-is-better metric versus the
	// reference output. Wall and TasksPerSec are read by the benchmark
	// ledger alone: nothing this package prints depends on the host clock.
	Wall    time.Duration
	Joules  float64
	Quality float64
	// TasksPerSec is the submitted-task throughput of the run
	// (submitted tasks / wall time), the scheduler-side speed metric.
	TasksPerSec float64
	// RequestedRatio is the ratio asked of the runtime; ProvidedRatio
	// the accurate fraction it delivered.
	RequestedRatio float64
	ProvidedRatio  float64
	// Decisions is the ordered decision log, populated only when
	// RunOptions.RecordDecisions is set.
	Decisions []sig.DecisionRecord
}

// Execute runs one cell of the evaluation: inst under the given mode and
// degree, measured against the precomputed reference output ref.
func Execute(spec Spec, inst Instance, ref any, mode Mode, degree Degree, opt RunOptions) (Measurement, error) {
	m := Measurement{Bench: spec.Name, Mode: mode, Degree: degree, Applicable: true}
	if mode == ModePerforation && !spec.Perforatable {
		m.Applicable = false
		return m, nil
	}
	kind, err := mode.PolicyKind()
	if err != nil {
		return m, err
	}
	ratio := 1.0
	if mode != ModeAccurate {
		ratio = spec.Ratios[degree]
	}
	rt, err := sig.New(sig.Config{
		Workers:         opt.Workers,
		Policy:          kind,
		GTBWindow:       opt.GTBWindow,
		RecordDecisions: opt.RecordDecisions,
	})
	if err != nil {
		return m, err
	}
	start := time.Now() //siglint:wallclock Wall is the benchmark ledger's (benchmark/paper_apps.go); no printed column reads it
	out := inst.Run(rt, ratio)
	m.Wall = time.Since(start) //siglint:wallclock the other end of start's read, for the same ledger
	if err := rt.Close(); err != nil {
		return m, err
	}
	st := rt.Stats()
	m.Joules = rt.Energy().Joules
	m.Quality = inst.Quality(ref, out)
	m.RequestedRatio = ratio
	decided := st.Accurate + st.Approximate + st.Dropped
	if decided > 0 {
		m.ProvidedRatio = float64(st.Accurate) / float64(decided)
	}
	if m.Wall > 0 {
		m.TasksPerSec = float64(st.Submitted) / m.Wall.Seconds()
	}
	if opt.RecordDecisions {
		for _, g := range st.Groups {
			m.Decisions = append(m.Decisions, g.Decisions...)
		}
	}
	return m, nil
}
