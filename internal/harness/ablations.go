package harness

import (
	"fmt"
	"io"
)

// sweepWindows are the GTB buffer sizes the sweep visits, 0 last (max
// buffering).
var sweepWindows = []int{4, 16, 64, 256, 0}

// GTBWindowSweep prints the first benchmark of the subset at the Medium
// degree under GTB with each window of sweepWindows, exposing the
// decision-latency / ratio-precision trade-off of the policy. Every column is
// modeled, so one run per window is the whole measurement, printed at
// modeledFmt's full precision.
func GTBWindowSweep(w io.Writer, opt Options) error {
	benches, err := subset(opt)
	if err != nil {
		return err
	}
	spec := benches[0]
	inst := spec.Make(opt.scale())
	ref := inst.Reference()
	fmt.Fprintln(w, "Ablation: GTB buffer-window sweep (first benchmark, Medium degree)")
	fmt.Fprintf(w, "%-8s %s %6s\n", "window", modeledHeader, "prov%")
	for _, win := range sweepWindows {
		mode, label := ModeGTB, fmt.Sprint(win)
		if win == 0 {
			mode, label = ModeGTBMax, "max"
		}
		m, err := Execute(spec, inst, ref, mode, Medium, RunOptions{Workers: opt.Workers, GTBWindow: win})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s "+modeledFmt+" %6.1f\n", label, m.Joules, m.Quality, 100*m.ProvidedRatio)
	}
	return nil
}
