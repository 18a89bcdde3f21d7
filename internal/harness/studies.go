package harness

import (
	"fmt"
	"io"
	"time"

	"repro/sig/serve"
)

// Study is one deterministic study — of the paper's own evaluation or of a
// layer built on its runtime: Run prints it in full at the configuration its
// golden pins. The output is a function of declared costs (and, for every
// serving study, a FakeClock behind the production pacer), so it is the same
// bytes on every run, host and GOMAXPROCS.
type Study struct {
	// Name is the `sigbench <Name>` command and testdata/<Name>.golden.
	Name string
	Desc string
	Run  func(w io.Writer) error
}

// studyScale sizes the kernels behind the adaptive and serving studies.
const studyScale = 0.1

// Studies is the one list of studies: TestStudyGoldens byte-compares every
// entry with its golden, and cmd/sigbench dispatches `<name>` and `all`
// through it. Wall time is not their subject — that is `go run ./benchmark`.
var Studies = []Study{
	{"paper", "the paper's modeled columns: sigbench fig2, table2 and ablate at one worker, LQH included",
		printPaper},
	{"adaptive", "sig/adapt controller: step response and disturbance rejection on streaming sobel, energy cap on kmeans",
		func(w io.Writer) error {
			res, err := AdaptiveStudy(AdaptiveConfig{Scale: studyScale})
			if err == nil {
				PrintAdaptiveStudy(w, res)
			}
			return err
		}},
	{"serve", "sig/serve under a 4x overload step, open then closed loop, sobel and kmeans backends",
		func(w io.Writer) error { return printServe(w, "sobel", "kmeans") }},
	{"slo", "measured shed/recover waves vs the derived bounds, windowed quality floor, priority lane",
		func(w io.Writer) error {
			res, err := SLOStudy()
			if err == nil {
				PrintSLOStudy(w, res)
			}
			return err
		}},
	{"pace", "measured-time pacing on a fake clock: cadence, counted overruns, RetryAfter honesty, replay",
		func(w io.Writer) error {
			res, err := PaceStudy(PaceConfig{})
			if err == nil {
				PrintPaceStudy(w, res)
			}
			return err
		}},
}

// newFrozenServer builds a server of sc with a fixed capacity of budget cost
// units per wave under the production budget rule: a FakeClock nobody
// advances measures every wave at zero, so the pacer holds its cadence at
// MinPeriod and prices each wave at workers × MinPeriod.
// sc's Workers must be set, and budget must split into a whole period of
// nanoseconds, or the rule would not reproduce it exactly.
func newFrozenServer(sc serve.Config, budget float64) (*serve.Server, error) {
	n := float64(sc.Workers)
	period := time.Duration(budget / n)
	if period <= 0 || float64(period)*n != budget {
		return nil, fmt.Errorf("harness: wave budget %v is not a whole period of ns over %v workers", budget, n)
	}
	sc.Clock = serve.NewFakeClock()
	sc.WavePeriod, sc.MinPeriod = period, period
	return serve.New(sc)
}

// printServe runs the serving overload study on each backend and prints the
// studies in order, a blank line between them.
func printServe(w io.Writer, backends ...string) error {
	for i, name := range backends {
		if i > 0 {
			fmt.Fprintln(w)
		}
		res, err := ServeStudy(ServeConfig{Scale: studyScale, Backend: name})
		if err != nil {
			return err
		}
		PrintServeStudy(w, res)
	}
	return nil
}

// printPaper prints the paper commands whose every column is modeled —
// `sigbench fig2`, `table2` and `ablate` — at a smoke scale on one worker. One
// worker decides every LQH task, in submission order, against one history,
// so LQH's columns are pinned with the rest; at more than one worker they
// vary run to run, and TestPolicyRatioCompliance bounds its ratio instead.
func printPaper(w io.Writer) error {
	opt := Options{Scale: 0.05, Workers: 1}
	fmt.Fprintf(w, "sigbench fig2, table2 and ablate -scale %g -workers %d\n", opt.Scale, opt.Workers)
	for _, artifact := range []func(io.Writer, Options) error{Fig2, Table2, GTBWindowSweep} {
		fmt.Fprintln(w)
		if err := artifact(w, opt); err != nil {
			return err
		}
	}
	return nil
}
