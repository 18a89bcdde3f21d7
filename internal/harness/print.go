package harness

import (
	"fmt"
	"io"
	"time"
)

// modeledFmt prints a modeled energy and quality pair. Declared costs make
// joules a multiple of 12 nJ (DefaultActiveWatts × 1 ns), so nine decimals
// show every cost unit a run executed; modeledHeader heads the two columns.
const modeledFmt = "%14.9fJ %11.8f"

var modeledHeader = fmt.Sprintf("%15s %11s", "energy", "quality")

// FormatMeasurementHeader writes the column header matching PrintFig2Row.
func FormatMeasurementHeader(w io.Writer) {
	fmt.Fprintf(w, "%-13s %-10s %-12s %12s %11s %10s %6s %6s %10s\n",
		"benchmark", "degree", "policy", "time", "energy", "quality", "req%", "prov%", "ktasks/s")
}

// PrintFig2Row writes one Figure 2 measurement, prefixed by prefix.
func PrintFig2Row(w io.Writer, m Fig2Row, prefix string) {
	if !m.Applicable {
		fmt.Fprintf(w, "%s%-13s %-10s %-12s %12s\n", prefix, m.Bench, m.Degree, m.Mode, "n/a")
		return
	}
	fmt.Fprintf(w, "%s%-13s %-10s %-12s %12v %10.4fJ %10.5f %6.1f %6.1f %10.1f\n",
		prefix, m.Bench, m.Degree, m.Mode, m.Wall.Round(time.Microsecond),
		m.Joules, m.Quality, 100*m.RequestedRatio, 100*m.ProvidedRatio,
		m.TasksPerSec/1e3)
}

// PrintFig4 writes the runtime-overhead rows of Figure 4.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4: all-accurate runtime execution time normalized to sequential")
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-13s %12s", "benchmark", "sequential")
	for _, wk := range rows[0].Workers {
		fmt.Fprintf(w, " %9dw", wk)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %12v", r.Bench, r.SequentialWall.Round(time.Microsecond))
		for _, v := range r.Normalized {
			fmt.Fprintf(w, " %9.2fx", v)
		}
		fmt.Fprintln(w)
	}
}

// PrintTable2 writes the policy-accuracy rows of Table 2: the columns of
// modes, or of every audited policy when none are named.
func PrintTable2(w io.Writer, rows []Table2Row, modes ...Mode) {
	if len(modes) == 0 {
		modes = table2Modes()
	}
	fmt.Fprintln(w, "Table 2: requested vs provided accurate ratio and significance inversions (Medium)")
	fmt.Fprintf(w, "%-13s %6s", "benchmark", "req%")
	for _, m := range modes {
		fmt.Fprintf(w, " %9s-prov%% %9s-inv%%", m, m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %6.1f", r.Bench, 100*r.Requested)
		for _, m := range modes {
			fmt.Fprintf(w, " %15.1f %14.1f", r.ProvidedPct[m], r.InversionPct[m])
		}
		fmt.Fprintln(w)
	}
}

// PrintWindowSweep writes the GTB window ablation. Its columns are all
// modeled, so they print at modeledFmt's full precision.
func PrintWindowSweep(w io.Writer, rows []WindowRow) {
	fmt.Fprintln(w, "Ablation: GTB buffer-window sweep (first benchmark, Medium degree)")
	fmt.Fprintf(w, "%-8s %s %6s\n", "window", modeledHeader, "prov%")
	for _, r := range rows {
		win := fmt.Sprintf("%d", r.Window)
		if r.Window == 0 {
			win = "max"
		}
		fmt.Fprintf(w, "%-8s "+modeledFmt+" %6.1f\n", win, r.Joules, r.Quality, r.ProvidedPct)
	}
}
