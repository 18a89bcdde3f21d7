package harness

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bench/sobel"
	"repro/internal/imaging"
	"repro/sig"
)

// Fig1 regenerates the paper's Figure 1: the Sobel output as a quadrant
// mosaic — accurate (top-left), Mild (top-right), Medium (bottom-left) and
// Aggressive (bottom-right) under the GTB max-buffering policy — written as
// a PGM to path. It returns the PSNR per degree; opt.Benches is not read.
func Fig1(path string, opt Options) (map[Degree]float64, error) {
	return sobelMosaic(path, opt, sig.PolicyGTBMaxBuffer)
}

// Fig3 is the same mosaic under loop perforation (Figure 3): dropped rows
// stay black, showing why significance-blind dropping degrades faster.
func Fig3(path string, opt Options) (map[Degree]float64, error) {
	return sobelMosaic(path, opt, sig.PolicyPerforation)
}

func sobelMosaic(path string, opt Options, kind sig.PolicyKind) (map[Degree]float64, error) {
	spec, _ := SpecByName("Sobel")
	p := sobel.DefaultParams()
	p.W, p.H = scaled(p.W, opt.scale(), 64), scaled(p.H, opt.scale(), 64)
	app := sobel.New(p)
	ref := app.Sequential()
	psnrs := make(map[Degree]float64, 3)
	outs := make(map[Degree]*imaging.Image, 3)
	for _, d := range Degrees() {
		rt, err := sig.New(sig.Config{Workers: opt.Workers, Policy: kind})
		if err != nil {
			return nil, err
		}
		out := app.Run(rt, spec.Ratios[d])
		if err := rt.Close(); err != nil {
			return nil, err
		}
		psnrs[d] = app.PSNR(ref, out)
		outs[d] = out
	}
	mosaic, err := imaging.Quadrants(ref, outs[Mild], outs[Medium], outs[Aggressive])
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := mosaic.WritePGM(f); err != nil {
		return nil, err
	}
	return psnrs, f.Close()
}

// modeledFmt prints a modeled energy and quality pair. Declared costs make
// joules a multiple of 12 nJ (DefaultActiveWatts × 1 ns), so nine decimals
// show every cost unit a run executed; modeledHeader heads the two columns.
const modeledFmt = "%14.9fJ %11.8f"

var modeledHeader = fmt.Sprintf("%15s %11s", "energy", "quality")

// Fig2 prints the quality/energy comparison of Figure 2 — every benchmark of
// the subset under every policy at every degree — one row per cell as it
// completes. Every column is modeled: energy from declared task costs,
// quality against the reference output, and the requested and provided
// accurate ratios.
func Fig2(w io.Writer, opt Options) error {
	benches, err := subset(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2: modeled energy and quality per benchmark, degree and policy")
	fmt.Fprintln(w, "Quality: 1/PSNR for Sobel and DCT, relative error (%) otherwise; lower is better.")
	fmt.Fprintf(w, "%-13s %-10s %-12s %s %6s %6s\n", "benchmark", "degree", "policy", modeledHeader, "req%", "prov%")
	for _, spec := range benches {
		inst := spec.Make(opt.scale())
		ref := inst.Reference()
		// The accurate baseline ignores the degree (Execute pins its
		// ratio to 1.0), so run it once and print it under every degree
		// instead of repeating the most expensive run three times.
		accurate, err := Execute(spec, inst, ref, ModeAccurate, Mild, RunOptions{Workers: opt.Workers})
		if err != nil {
			return err
		}
		for _, d := range Degrees() {
			for _, mode := range Modes() {
				m := accurate
				m.Degree = d
				if mode != ModeAccurate {
					if m, err = Execute(spec, inst, ref, mode, d, RunOptions{Workers: opt.Workers}); err != nil {
						return err
					}
				}
				if !m.Applicable {
					fmt.Fprintf(w, "%-13s %-10s %-12s %15s\n", m.Bench, m.Degree, m.Mode, "n/a")
					continue
				}
				fmt.Fprintf(w, "%-13s %-10s %-12s "+modeledFmt+" %6.1f %6.1f\n", m.Bench, m.Degree, m.Mode,
					m.Joules, m.Quality, 100*m.RequestedRatio, 100*m.ProvidedRatio)
			}
		}
	}
	return nil
}
