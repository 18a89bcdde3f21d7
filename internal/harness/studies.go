package harness

import (
	"fmt"
	"io"
)

// Study is one deterministic study of the layers above the paper's runtime:
// Run prints it in full at the configuration its golden pins. The output is
// a function of declared costs (and a FakeClock where time matters), so it
// is the same bytes on every run, host and GOMAXPROCS.
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
	{"adaptive", "sig/adapt controller: step response and disturbance rejection on streaming sobel, energy cap on kmeans",
		func(w io.Writer) error {
			res, err := AdaptiveStudy(AdaptiveConfig{Scale: studyScale})
			if err == nil {
				PrintAdaptiveStudy(w, res)
			}
			return err
		}},
	{"serve", "sig/serve under a 4x overload step, open then closed loop, sobel and kmeans backends",
		func(w io.Writer) error { return printServe(w, 0, "sobel", "kmeans") }},
	{"serve_4shards", "the same overload step served by a 4-shard fleet",
		func(w io.Writer) error { return printServe(w, 4, "sobel") }},
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
	{"fleet", "elastic fleet: rolling shard replacement with bit-exact energy, autoscaler step response",
		func(w io.Writer) error {
			res, err := FleetStudy(FleetStudyConfig{})
			if err == nil {
				PrintFleetStudy(w, res)
			}
			return err
		}},
}

// printServe runs the serving overload study on each backend and prints the
// studies in order, a blank line between them.
func printServe(w io.Writer, shards int, backends ...string) error {
	for i, name := range backends {
		if i > 0 {
			fmt.Fprintln(w)
		}
		res, err := ServeStudy(ServeConfig{Scale: studyScale, Shards: shards, Backend: name})
		if err != nil {
			return err
		}
		PrintServeStudy(w, res)
	}
	return nil
}
