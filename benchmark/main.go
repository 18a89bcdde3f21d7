// Command benchmark is the repository's one performance benchmark: four
// named workloads that drive the stack from the outside — sigserve over
// loopback HTTP, serve.Server in process, sig.Runtime and shard.Router
// directly, and the paper's kernels through the evaluation harness — verify
// what came back, and print every metric by name with its unit. README.md in
// this directory says why each workload exists and how each metric is
// defined; BENCHMARK.json at the repository root is the contract.
//
//	go run ./benchmark                                   all four workloads, end-to-end metrics
//	go run ./benchmark -workload serve_open -seed 7      one workload
//	go run ./benchmark -workload serve_open -trace 1     traced run: spans + the layer ladder
//	go run ./benchmark -trace 1                          the same, no workload given the longer window
//	go run ./benchmark -selfcheck                        two sets of runs against the bounds
//	go run ./benchmark -quick                            1 s smoke of every workload, checks on
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero when a check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// metricDef is one metric's unit and direction. BENCHMARK.json repeats them
// (a test keeps the two in step) and adds the bounds.
type metricDef struct {
	name, unit string
	lowerBest  bool
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one; README.md gives the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"ops_per_s", "1/s", false},
	{"latency_p50_s", "s", true},
	{"accurate_share", "share", false},
	{"joules_per_op", "J", true},
	{"overhead_ratio", "x", true},
	{"speedup", "x", false},
}

// report is the result line the contract asks for.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The bare HTTP server of http_closed is this same binary, started as a
	// child with the address in its environment.
	if addr := os.Getenv(bareEnv); addr != "" {
		fmt.Fprintln(os.Stderr, "benchmark: bare HTTP server:", serveBare(addr))
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run (default: all four, one after the other)")
		seed      = fs.Int64("seed", 1, "seed of every generated input")
		seconds   = fs.Float64("seconds", 20, "length of the timed window, at least 1")
		trace     = fs.Int("trace", 0, "1 = traced run: record spans, replay the layer ladder, print per-layer metrics")
		selfcheck = fs.Bool("selfcheck", false, "run two sets of runs of this code and compare them against BENCHMARK.json's bounds")
		quick     = fs.Bool("quick", false, "smoke: 1 s windows, one short set-up, every check on")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	// The segment estimators divide the window; a window of zero or less
	// would divide by zero.
	if !(*seconds >= 1) {
		return usage("-seconds %v: the timed window is at least one second", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace %d: want 0 or 1", *trace)
	}
	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(*name); !ok {
		return usage("unknown workload %q", *name)
	}
	if err := checkPlatform(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	runtime.GOMAXPROCS(procs)

	// Children are stopped on every way out: normal return, failed check,
	// panic, SIGINT/SIGTERM.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAllChildren()
		os.Exit(130)
	}()
	defer stopAllChildren()

	if *selfcheck {
		return selfCheck()
	}
	opt := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), warmup: warmup, setups: setups}
	if *quick {
		opt = quickOptions(*seed)
	}
	if *trace == 1 {
		// A traced run replays every workload's rungs whichever one is named,
		// so without a name there is still only one to make.
		label := *name
		if label == "" {
			label = "all"
		}
		return runAndPrint(label, opt, true)
	}
	for _, n := range names {
		if c := runAndPrint(n, opt, false); c != 0 {
			code = c
		}
	}
	return code
}

// Every set-up ends with a warm-up at the workload's own load that stops by
// the clock, checked between individual ops. A run sets up several times and
// reports the median, which with the clocked part makes setup_s repeat.
const (
	warmup = 2 * time.Second
	setups = 3
)

// quickOptions is the smoke configuration: every code path and every check,
// no number worth keeping.
func quickOptions(seed int64) options {
	return options{seed: seed, window: time.Second, warmup: 100 * time.Millisecond, setups: 1}
}

// runAndPrint makes one run — the named workload untraced, or the traced
// ladder with the named workload given the longer window — and prints its
// metrics one per line and the result object last.
func runAndPrint(name string, opt options, traced bool) int {
	var res *result
	var err error
	defs := endToEnd
	if traced {
		res, err = runTraced(name, opt)
		defs = perLayer()
	} else {
		w, _ := workloadByName(name) // run checked the name
		res, err = runWorkload(w, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	values, other := res.e2e, res.layer
	if traced {
		values, other = res.layer, nil
	}
	rep := report{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured (window too short?)\n", name, d.name)
			return 1
		}
		rep.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("%-14s %-40s %14.6g %s\n", name, d.name, v, d.unit)
	}
	// An untraced run measures some per-layer numbers on the way; they are
	// printed for people and left out of the result object.
	for _, k := range sortedKeys(other) {
		fmt.Printf("%-14s %-40s %14.6g (per-layer, informational)\n", name, k, other[k])
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: CHECK FAILED: %s\n", name, p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}
