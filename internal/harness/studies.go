package harness

import (
	"cmp"
	"fmt"
	"io"
	"iter"
	"sort"
	"time"

	"repro/sig/serve"
)

// Study is one deterministic study — of the paper's own evaluation or of a
// layer built on its runtime: Run prints it in full at the one configuration
// its golden pins. A study takes no settings; its scale, worker count and
// wave script are constants of its file. The output is a function of
// declared costs (and, for every serving study, the production pump and
// pacer in fake time), so it is the same bytes on every run, host and
// GOMAXPROCS.
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
		func(w io.Writer) error { return printStudy(w, AdaptiveStudy, PrintAdaptiveStudy) }},
	{"serve", "sig/serve under a 4x overload step, open then closed loop, sobel and kmeans backends",
		func(w io.Writer) error { return printServe(w, "sobel", "kmeans") }},
	{"slo", "measured shed/recover waves vs the derived bounds, windowed quality floor, priority lane",
		func(w io.Writer) error { return printStudy(w, SLOStudy, PrintSLOStudy) }},
	{"pace", "measured-time pacing on a fake clock: cadence, counted overruns, RetryAfter honesty, replay",
		func(w io.Writer) error { return printStudy(w, PaceStudy, PrintPaceStudy) }},
}

// printStudy runs a study and, when it succeeds, prints its result.
func printStudy[R any](w io.Writer, run func() (R, error), show func(io.Writer, R)) error {
	res, err := run()
	if err == nil {
		show(w, res)
	}
	return err
}

// printServe runs the serving overload study on each backend and prints the
// studies in order, a blank line between them.
func printServe(w io.Writer, backends ...string) error {
	for i, name := range backends {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := printStudy(w, func() (ServeResult, error) { return ServeStudy(name) }, PrintServeStudy); err != nil {
			return err
		}
	}
	return nil
}

// scenario is one section of a serving study: the server it plays on, its
// request stream (stream(i) is the i-th request) and, when set, a probe
// submitted ahead of every wave's arrivals. A frozen scenario (budget set)
// fixes the capacity at budget cost units a wave under the production
// budget rule: its bodies never advance the clock, so every wave measures
// zero wall and the pacer prices it at Workers × MinPeriod, with WavePeriod
// = MinPeriod = budget ÷ Workers, exact in nanoseconds. clock is the
// scenario's FakeClock when its stream must advance it; play makes one
// otherwise.
type scenario struct {
	cfg    serve.Config
	budget float64
	clock  *serve.FakeClock
	stream func(i int) serve.Request
	probe  *serve.Request
}

// play runs section on a fresh server of sc, whose every wave the
// production pump fires in fake time (FakeClock.Run): each wait sleeps to
// the wave's due time (at once after an overrun) and hands over to the
// section there, whose r.wave offers the wave's arrivals and returns once
// the next is due. play then ends the section (studyRun.close, reaping
// through done) and returns the server's totals after the drain.
func (sc scenario) play(section func(r *studyRun) error, done func(i, waves int)) (serve.Totals, error) {
	fc := cmp.Or(sc.clock, serve.NewFakeClock())
	sc.cfg.Clock = fc
	if sc.budget > 0 {
		n := float64(sc.cfg.Workers)
		period := time.Duration(sc.budget / n)
		if period <= 0 || float64(period)*n != sc.budget {
			return serve.Totals{}, fmt.Errorf("harness: wave budget %v is not a whole period of ns over %v workers", sc.budget, n)
		}
		sc.cfg.WavePeriod, sc.cfg.MinPeriod = period, period
	}
	s, err := serve.New(sc.cfg)
	if err != nil {
		return serve.Totals{}, err
	}
	r := &studyRun{sc: sc, s: s}
	r.pull, r.stop = iter.Pull(func(yield func(serve.WaveReport) bool) {
		var last serve.WaveReport
		fc.Run(s, func(wakeAt time.Time) (time.Time, bool) {
			if fc.Now().Before(wakeAt) {
				return wakeAt, true // sleep to the due time
			}
			return wakeAt, yield(last) // the section offers the wave's arrivals
		}, func(rep serve.WaveReport) { last = rep })
	})
	r.pull() // to the first wave's due time
	err = section(r)
	if cerr := r.close(done); err == nil {
		err = cerr
	}
	return s.Totals(), err
}

// studyRun is a scenario in play, its pump paused at a wave's due time.
type studyRun struct {
	sc  scenario
	s   *serve.Server
	seq int // stream requests offered so far
	// kept holds the accepted stream requests' tickets that reap has not
	// released yet, in submission order.
	kept []keptTicket
	pull func() (serve.WaveReport, bool) // fire the wave, pause at the next's due time
	stop func()
	// waves and overruns count the waves fired and those that overran.
	waves, overruns int64
}

// keptTicket is an accepted request's ticket and its stream index.
type keptTicket struct {
	tk *serve.Ticket
	i  int
}

// submit offers req, the stream's i-th request (-1 for one outside the
// stream), and keeps its ticket when the server accepts it.
func (r *studyRun) submit(req serve.Request, i int) error {
	tk, err := r.s.Submit(req)
	if err == nil {
		r.kept = append(r.kept, keptTicket{tk, i})
	}
	return err
}

// offer submits the stream's next n requests.
func (r *studyRun) offer(n int) {
	for range n {
		_ = r.submit(r.sc.stream(r.seq), r.seq) // the server counts a rejection in its Rejected total
		r.seq++
	}
}

// wave is the section's arrival step: it offers the probe (shed, like any
// request, at the queue limit) and the stream's next n requests, lets the
// pump fire the wave, and returns its report once the next wave is due.
func (r *studyRun) wave(n int) serve.WaveReport {
	if r.sc.probe != nil {
		_ = r.submit(*r.sc.probe, -1)
	}
	r.offer(n)
	rep, _ := r.pull() // the pump runs until close stops it
	r.waves++
	if rep.Overrun {
		r.overruns++
	}
	return rep
}

// reap releases every kept ticket that has resolved — after Close, all of
// them — handing f, when set, its stream index and wave latency, keeps the
// rest, and returns how many it released.
func (r *studyRun) reap(f func(i, waves int)) int {
	still := r.kept[:0]
	for _, k := range r.kept {
		select {
		case <-k.tk.Done():
			if f != nil {
				f(k.i, k.tk.WaveLatency())
			}
			k.tk.Release()
		default:
			still = append(still, k)
		}
	}
	n := len(r.kept) - len(still)
	r.kept = still
	return n
}

// close ends the section: it stops the pump, closes the server, which
// resolves every accepted ticket, and reaps them all through f. A ticket
// still kept after that fails the section, so none is left to the garbage
// collector instead of going back to the server's pool.
func (r *studyRun) close(f func(i, waves int)) error {
	r.stop()
	if err := r.s.Close(); err != nil {
		return err
	}
	r.reap(f)
	if len(r.kept) > 0 {
		return fmt.Errorf("harness: %d tickets unresolved after Close", len(r.kept))
	}
	return nil
}

// percentiles returns the p50 and p99 of wave latencies (sorting lats), or
// zeros for none.
func percentiles(lats []int) (p50, p99 int) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Ints(lats)
	return lats[len(lats)*50/100], lats[len(lats)*99/100]
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
