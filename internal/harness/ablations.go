package harness

// WindowRow is one point of the GTB buffer-window sweep.
type WindowRow struct {
	// Window is the GTB buffer size; 0 denotes the unbounded
	// (max-buffering) configuration.
	Window      int
	Joules      float64
	Quality     float64
	ProvidedPct float64
}

// sweepWindows are the GTB buffer sizes the sweep visits, 0 last (max
// buffering).
var sweepWindows = []int{4, 16, 64, 256, 0}

// GTBWindowSweep runs the first benchmark of the subset at the Medium degree
// under GTB with each window of sweepWindows, exposing the decision-latency /
// ratio-precision trade-off of the policy. Every column is modeled, so one
// run per window is the whole measurement.
func GTBWindowSweep(opt Options) ([]WindowRow, error) {
	benches, err := subset(opt)
	if err != nil {
		return nil, err
	}
	spec := benches[0]
	inst := spec.Make(opt.scale())
	ref := inst.Reference()
	rows := make([]WindowRow, 0, len(sweepWindows))
	for _, win := range sweepWindows {
		mode := ModeGTB
		if win == 0 {
			mode = ModeGTBMax
		}
		m, err := Execute(spec, inst, ref, mode, Medium, RunOptions{Workers: opt.Workers, GTBWindow: win})
		if err != nil {
			return nil, err
		}
		rows = append(rows, WindowRow{
			Window:      win,
			Joules:      m.Joules,
			Quality:     m.Quality,
			ProvidedPct: 100 * m.ProvidedRatio,
		})
	}
	return rows, nil
}
