package main

import (
	"fmt"
	"sort"
	"time"
)

// Host shape the whole benchmark assumes: the sandbox has two CPUs, so the
// stack runs with two workers and the load comes from at most two client
// connections or generator goroutines.
const (
	workers = 2
	procs   = 2
)

// options is what one run of one workload is given.
type options struct {
	seed   int64
	window time.Duration // timed window
	warmup time.Duration // clocked warm-up that ends every set-up
	setups int           // set-ups per run; setup_s is their median
	tr     *tracer       // nil in an untraced run
}

// A workload builds its inputs from the seed, starts what it measures and
// warms it up (setup), then measures for the window. Everything the program
// under test sees is generated here.
type workload struct {
	name  string
	why   string
	setup func(opt options) (instance, error)
	// build, if set, compiles what setup starts. It runs before the first
	// set-up and is not part of setup_s: how warm the build cache is differs
	// between commits and says nothing about the program.
	build func() error
}

type instance interface {
	// measure runs the timed window and the correctness checks.
	measure(opt options) (*result, error)
	// close stops everything setup started and waits for it to end.
	close()
}

// result is what a measured window yields. Both metric sets are always
// filled in: main prints the end-to-end set after an untraced run and the
// per-layer set after a traced one.
type result struct {
	attempted, failed int64
	problems          []string // correctness checks that did not hold
	e2e               map[string]float64
	layer             map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func workloads() []workload {
	return []workload{
		{"http_closed", "closed loop, 2 keep-alive clients against a sigserve subprocess: the HTTP front and the pacer wait dominate, request bodies are ~2% of a request", setupHTTPClosed,
			func() error { _, err := buildSigserve(); return err }},
		{"serve_open", "open loop at 2.0x modeled capacity into an in-process serve.Server: admission and the adaptive controller shed quality under sustained overload", setupServeOpen, nil},
		{"runtime_tasks", "back-to-back waves of 4096 sub-microsecond tasks through sig.Runtime and shard.Router: the scheduler does nearly all the work", setupRuntimeTasks, nil},
		{"paper_apps", "the paper's six kernels at Medium degree under each policy: kernel bodies dominate, the predicted no-change workload for scheduler and serving work", setupPaperApps, nil},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload sets the workload up opt.setups times (each with its clocked
// warm-up; all but the last are torn down again), measures the last one and
// reports setup_s as the median set-up time.
func runWorkload(w workload, opt options) (*result, error) {
	if w.build != nil {
		if err := w.build(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	var setupS []float64
	var inst instance
	for i := 0; i < opt.setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(opt); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()
	res, err := inst.measure(opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.e2e["setup_s"] = median(setupS)
	return res, nil
}

// warmUntil calls op until the deadline has passed, checking the clock
// between individual ops so the warm-up's length does not depend on how long
// a pass of the workload happens to take.
func warmUntil(deadline time.Time, op func()) {
	for time.Now().Before(deadline) {
		op()
	}
}

// b2i indexes a [2]T by a flag: [untraced, traced].
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
