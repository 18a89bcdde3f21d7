// Command sigbench regenerates every table and figure of the paper's
// evaluation (section 4) on the Go reproduction of the significance-aware
// runtime, and prints the deterministic studies of the layers built on it.
//
// Usage:
//
//	sigbench table1
//	sigbench fig1   [-out fig1.pgm] [-scale 0.25] [-workers 16]
//	sigbench fig2   [-bench Sobel,DCT] [-scale 0.25] [-workers 16] [-reps 3]
//	sigbench fig3   [-out fig3.pgm] [-scale 0.25] [-workers 16]
//	sigbench fig4   [-bench Sobel,DCT] [-scale 0.25] [-reps 3]
//	sigbench table2 [-bench Sobel,DCT] [-scale 0.25] [-workers 16]
//	sigbench ablate [-bench Sobel,DCT] [-scale 0.25] [-workers 16] [-reps 3]
//	sigbench <study>
//	sigbench all    [-bench Sobel,DCT] [-scale 0.25] [-workers 16] [-reps 3]
//
// Scale 1.0 reproduces evaluation-size problems; smaller scales shrink the
// workloads proportionally for quick runs. A <study> is an entry of
// harness.Studies (`sigbench` alone lists them): it takes no flags and
// prints, byte for byte, internal/harness/testdata/<study>.golden. `all` is
// the paper commands in the order above, then every study. An unknown
// command, a flag the command does not read, or a stray argument is a usage
// error (exit 2). Wall-clock performance is `go run ./benchmark`, not this.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the flag values of one invocation; a command sees only the
// flags it registered.
type options struct {
	harness.Options
	out string
}

// command is one subcommand: the flags it reads (a subset of "scale workers
// reps bench out") and what it prints.
type command struct {
	name  string
	flags string
	run   func(w io.Writer, o options) error
}

// paper are the commands of the paper's evaluation, in presentation order.
var paper = []command{
	{"table1", "", func(w io.Writer, _ options) error { harness.Table1(w); return nil }},
	{"fig1", "out scale workers", func(w io.Writer, o options) error { return mosaic(w, o, "fig1.pgm", harness.Fig1) }},
	{"fig2", "bench scale workers reps", fig2},
	{"fig3", "out scale workers", func(w io.Writer, o options) error { return mosaic(w, o, "fig3.pgm", harness.Fig3) }},
	{"fig4", "bench scale reps", func(w io.Writer, o options) error {
		rows, err := harness.Fig4(o.Options)
		if err == nil {
			harness.PrintFig4(w, rows)
		}
		return err
	}},
	{"table2", "bench scale workers", func(w io.Writer, o options) error {
		rows, err := harness.Table2(o.Options)
		if err == nil {
			harness.PrintTable2(w, rows)
		}
		return err
	}},
	{"ablate", "bench scale workers reps", ablate},
}

// commands is every subcommand but `all`: the paper commands, then one per
// entry of harness.Studies.
func commands() []command {
	cmds := slices.Clip(paper) // append below must copy, not write into paper's array
	for _, s := range harness.Studies {
		cmds = append(cmds, command{name: s.Name, run: func(w io.Writer, _ options) error { return s.Run(w) }})
	}
	return cmds
}

// run is main without the process: it executes args and returns the exit
// code (0 ok, 1 the command failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	cmds := commands()
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	selected, flags := cmds, "bench scale workers reps" // `all`
	if args[0] != "all" {
		selected = nil
		for _, c := range cmds {
			if c.name == args[0] {
				selected, flags = []command{c}, c.flags
			}
		}
	}
	if selected == nil {
		fmt.Fprintf(stderr, "sigbench: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}

	var o options
	fs := flag.NewFlagSet("sigbench "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, name := range strings.Fields(flags) {
		switch name {
		case "scale":
			fs.Float64Var(&o.Scale, "scale", 1.0, "problem scale in (0,1]; 1.0 = evaluation scale")
		case "workers":
			fs.IntVar(&o.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		case "reps":
			fs.IntVar(&o.Repetitions, "reps", 1, "repetitions to average over")
		case "bench":
			fs.Func("bench", "comma-separated benchmark subset (default all)", func(s string) error {
				o.Benches = strings.Split(s, ",")
				return nil
			})
		case "out":
			fs.StringVar(&o.out, "out", "", "output PGM path (default <command>.pgm)")
		default:
			panic("sigbench: command " + args[0] + " names no such flag: " + name)
		}
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2 // the FlagSet has printed the error and the command's flags
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sigbench %s: unexpected argument %q\n", args[0], fs.Arg(0))
		fs.Usage()
		return 2
	}

	for i, c := range selected {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := c.run(stdout, o); err != nil {
			fmt.Fprintln(stderr, "sigbench:", err)
			return 1
		}
	}
	return 0
}

func usage(w io.Writer) {
	var names []string
	for _, c := range paper {
		names = append(names, c.name)
	}
	fmt.Fprintf(w, "usage: sigbench {%s|<study>|all} [flags]\n", strings.Join(names, "|"))
	fmt.Fprintln(w, "run 'sigbench <cmd> -h' for per-command flags; the studies take none:")
	for _, s := range harness.Studies {
		fmt.Fprintf(w, "  %-14s %s\n", s.Name, s.Desc)
	}
}

// mosaic writes the Figure 1/3 quadrant image and prints its PSNRs.
func mosaic(w io.Writer, o options, def string,
	f func(string, float64, int) (map[harness.Degree]float64, error)) error {
	out := o.out
	if out == "" {
		out = def
	}
	psnrs, err := f(out, o.Scale, o.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (quadrants: accurate / Mild / Medium / Aggressive)\n", out)
	for _, d := range []harness.Degree{harness.Mild, harness.Medium, harness.Aggressive} {
		fmt.Fprintf(w, "  %-7s PSNR = %6.2f dB\n", d, psnrs[d])
	}
	return nil
}

func fig2(w io.Writer, o options) error {
	fmt.Fprintln(w, "Figure 2: execution time, energy and quality per benchmark/degree/policy.")
	fmt.Fprintln(w, "Quality: 1/PSNR for Sobel and DCT, relative error (%) otherwise; lower is better.")
	fmt.Fprintln(w)
	harness.FormatMeasurementHeader(w)
	return harness.Fig2(o.Options, func(m harness.Fig2Row) {
		harness.PrintFig2Row(w, m, "")
	})
}

func ablate(w io.Writer, o options) error {
	sweep, err := harness.GTBWindowSweep(o.Options, []int{4, 16, 64, 256, 0})
	if err != nil {
		return err
	}
	harness.PrintWindowSweep(w, sweep)
	fmt.Fprintln(w)
	oracle, err := harness.OracleComparison(o.Options)
	if err != nil {
		return err
	}
	harness.PrintOracleComparison(w, oracle)
	fmt.Fprintln(w)
	dvfs, err := harness.DVFSStudy(o.Options)
	if err != nil {
		return err
	}
	harness.PrintDVFSStudy(w, dvfs)
	fmt.Fprintln(w)
	return harness.NTCStudy(w)
}
