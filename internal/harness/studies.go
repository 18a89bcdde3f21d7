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
		func(w io.Writer) error {
			res, err := AdaptiveStudy()
			if err == nil {
				PrintAdaptiveStudy(w, res)
			}
			return err
		}},
	{"serve", "sig/serve under a 4x overload step, open then closed loop, sobel and kmeans backends",
		func(w io.Writer) error {
			if err := ServeStudy(w, "sobel"); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return ServeStudy(w, "kmeans")
		}},
	{"slo", "measured shed/recover waves vs the derived bounds, windowed quality floor, priority lane",
		SLOStudy},
	{"pace", "measured-time pacing on a fake clock: cadence, counted overruns, RetryAfter honesty, replay",
		PaceStudy},
}

// studyLog is where a serving study plays its sections: w takes every line
// the study prints, every scenario runs on workers × its configured workers
// (1 in the goldens), and rows and totals record every wave fired and each
// play's totals after its drain, in play order, for a replay to diff.
type studyLog struct {
	w       io.Writer
	workers int
	rows    []waveRow
	totals  []serve.Totals
}

// diff returns an error naming the first wave report (sameWave), or else
// the totals, on which o's record differs from l's bit for bit, or nil.
func (l *studyLog) diff(o *studyLog) error {
	if len(l.rows) != len(o.rows) {
		return fmt.Errorf("%d waves vs %d", len(l.rows), len(o.rows))
	}
	for i, row := range l.rows {
		if a, b := row.WaveReport, o.rows[i].WaveReport; !sameWave(a, b) {
			return fmt.Errorf("wave report %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if a, b := fmt.Sprint(l.totals), fmt.Sprint(o.totals); a != b {
		return fmt.Errorf("totals diverged: %s vs %s", a, b)
	}
	return nil
}

// sameWave reports whether two wave reports are equal, every float bit for
// bit: %v prints a float64 in the shortest form that parses back to its bits.
func sameWave(a, b serve.WaveReport) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// broken returns an error naming the contract format states, with the
// values that broke it, unless ok. A serving study joins its checks
// (errors.Join) into its error, which fails its golden and sigbench.
func broken(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
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

// play runs section on a fresh server of sc, on l.workers × its workers,
// whose every wave the production pump fires in fake time (FakeClock.Run):
// each wait sleeps to the wave's due time (at once after an overrun) and
// hands over to the section there, whose r.wave offers the wave's arrivals
// and returns once the next is due. play then ends the section
// (studyRun.close, reaping through done), prints its waves (printWaves) and
// records them, with the server's totals after the drain, in l.
func (sc scenario) play(l *studyLog, section func(r *studyRun) error, done func(i, waves int)) ([]waveRow, serve.Totals, error) {
	fc := cmp.Or(sc.clock, serve.NewFakeClock())
	sc.cfg.Clock = fc
	sc.cfg.Workers *= l.workers
	if sc.budget > 0 {
		n := float64(sc.cfg.Workers)
		period := time.Duration(sc.budget / n)
		if period <= 0 || float64(period)*n != sc.budget {
			return nil, serve.Totals{}, fmt.Errorf("harness: wave budget %v is not a whole period of ns over %v workers", sc.budget, n)
		}
		sc.cfg.WavePeriod, sc.cfg.MinPeriod = period, period
	}
	s, err := serve.New(sc.cfg)
	if err != nil {
		return nil, serve.Totals{}, err
	}
	r := &studyRun{sc: sc, s: s}
	r.pull, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		fc.Run(s, func(wakeAt time.Time) (time.Time, bool) {
			if fc.Now().Before(wakeAt) {
				return wakeAt, true // sleep to the due time
			}
			return wakeAt, yield(struct{}{}) // the section offers the wave's arrivals
		}, func(rep serve.WaveReport) {
			r.rows = append(r.rows, waveRow{rep, r.offered, s.PacePeriod()})
			r.offered = 0
		})
	})
	r.pull() // to the first wave's due time
	err = section(r)
	if cerr := r.close(done); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, serve.Totals{}, err
	}
	tot := s.Totals()
	printWaves(l.w, r.rows)
	l.rows, l.totals = append(l.rows, r.rows...), append(l.totals, tot)
	return r.rows, tot, nil
}

// waveRow is one wave the pump fired: its report, the requests the section
// offered since the wave before (a rejected one included), and the cadence
// the wave left in force.
type waveRow struct {
	serve.WaveReport
	offered int
	pace    time.Duration
}

// printWaves is the one printer of the serving studies' waves: one row a
// wave, holding the arrivals offered and every WaveReport field once —
// Admitted is Stats.Submitted, and Stats.Busy is Stats.Joules over the
// modeled active watts — then the cadence in force after it.
func printWaves(w io.Writer, rows []waveRow) {
	fmt.Fprintf(w, "%-4s %7s %5s %4s/%-4s/%-4s %6s %6s %10s %6s %6s %5s %6s %4s %4s %5s %9s %8s %7s %8s\n",
		"wave", "offered", "sub", "acc", "deg", "drop", "req%", "prov%", "energy", "next%", "load", "held", "wmean",
		"prio", "tout", "depth", "budget k", "wall ms", "overrun", "pace ms")
	for _, row := range rows {
		st, c := row.Stats, row.Control
		fmt.Fprintf(w, "%-4d %7d %5d %4d/%-4d/%-4d %6.1f %6.1f %9.4fJ %6.1f %6.2f %5v %6.3f %4d %4d %5d %9.1f %8.3f %7v %8.3f\n",
			st.Wave, row.offered, st.Submitted, st.Accurate, st.Approximate, st.Dropped,
			100*st.RequestedRatio, 100*st.ProvidedRatio, st.Joules, 100*c.NextRatio, c.Measure, c.Held, c.WindowMean,
			row.PriorityAdmitted, row.TimedOut, row.Depth, row.Budget/1000, durMs(row.WallTime), row.Overrun, durMs(row.pace))
	}
}

// studyRun is a scenario in play, its pump paused at a wave's due time.
type studyRun struct {
	sc      scenario
	s       *serve.Server
	seq     int // stream requests offered so far
	offered int // requests submitted since the last wave fired
	// kept holds the accepted stream requests' tickets that reap has not
	// released yet, in submission order.
	kept []keptTicket
	pull func() (struct{}, bool) // fire the wave, pause at the next's due time
	stop func()
	rows []waveRow // every wave the pump fired, in order
}

// keptTicket is an accepted request's ticket and its stream index.
type keptTicket struct {
	tk *serve.Ticket
	i  int
}

// submit offers req, the stream's i-th request (-1 for one outside the
// stream), and keeps its ticket when the server accepts it.
func (r *studyRun) submit(req serve.Request, i int) error {
	r.offered++
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
	r.pull() // the pump runs until close stops it
	return r.rows[len(r.rows)-1].WaveReport
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
