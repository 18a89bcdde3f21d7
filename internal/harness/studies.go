package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/sig/serve"
)

// Study is one deterministic study — of the paper's own evaluation or of a
// layer built on its runtime: Run prints it in full at the one configuration
// its golden pins. A study takes no settings; its scale, worker count and
// wave script are constants of its file. The output is a function of
// declared costs (and, for every serving study, a FakeClock behind the
// production pacer), so it is the same bytes on every run, host and
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
		res, err := ServeStudy(name)
		if err != nil {
			return err
		}
		PrintServeStudy(w, res)
	}
	return nil
}

// studyRun plays one section of a serving study, one scripted wave at a
// time: each wave offers the next requests of the section's stream, fires
// RunWave and, on a clocked study, sleeps the pump's rep.Next in fake time.
// The serve, slo and pace studies fire every wave through wave, so moving
// them onto the production pump (Start under fake time) changes wave alone.
type studyRun struct {
	s    *serve.Server
	next func(i int) serve.Request // the i-th request of the section's stream
	seq  int                       // stream requests offered so far
	// clock, when set, is advanced by each wave's rep.Next.
	clock *serve.FakeClock
	// kept holds the accepted stream requests' tickets that reap has not
	// released yet, in submission order.
	kept []keptTicket
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
		_ = r.submit(r.next(r.seq), r.seq) // the server counts a rejection in its Rejected total
		r.seq++
	}
}

// wave offers the stream's next n requests, then fires one wave.
func (r *studyRun) wave(n int) serve.WaveReport {
	r.offer(n)
	rep := r.s.RunWave()
	if r.clock != nil {
		r.clock.Advance(rep.Next)
	}
	return rep
}

// reap releases every kept ticket that has resolved — after Close, all of
// them — handing f its stream index and wave latency, keeps the rest, and
// returns how many it released.
func (r *studyRun) reap(f func(i, waves int)) int {
	still := r.kept[:0]
	for _, k := range r.kept {
		select {
		case <-k.tk.Done():
			f(k.i, k.tk.WaveLatency())
			k.tk.Release()
		default:
			still = append(still, k)
		}
	}
	n := len(r.kept) - len(still)
	r.kept = still
	return n
}

// close ends the section: it closes the server, which resolves every
// accepted ticket, and reaps them all through f. A ticket still kept after
// that fails the section, so none is left to the garbage collector instead
// of going back to the server's pool.
func (r *studyRun) close(f func(i, waves int)) error {
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
