package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/sig/serve"
)

// serve_open: one generator submits evenly spaced requests at a fixed 2.0x
// the modeled capacity into an in-process serve.Server with its real pacer;
// one collector waits on the tickets. A calibrator thread runs the same
// sobel bodies bare every 100 ms, so the CPU the stack spends is reported as
// a ratio to what the executed bodies cost in the same host weather.

const (
	overload   = 2.0   // arrival rate as a multiple of workers*1e9/CostAccurate
	poolSize   = 16384 // pre-built requests the generator cycles through
	calibSize  = 2048  // pre-built requests the calibrator cycles through
	calibBatch = 32    // bodies of each kind per calibration
	calibEvery = 100 * time.Millisecond
	openQueue  = 8192
	traceEvery = 16 // a traced run records spans for every 16th request
	// maxCatchUp is the longest the generator may have overslept and still
	// replay the arrivals it missed as a burst (1680 requests).
	maxCatchUp = 50 * time.Millisecond
)

type serveOpen struct {
	srv      *serve.Server
	backend  *harness.ServeBackend
	pool     []serve.Request
	calib    []serve.Request
	interval time.Duration // between arrivals
	next     int           // pool index of the next request; carries over from the warm-up
}

func setupServeOpen(opt options) (instance, error) {
	s := &serveOpen{backend: harness.SobelServeBackend(serveScale)}
	tiers := tierSequence(opt.seed, poolSize)
	s.pool = make([]serve.Request, poolSize)
	for i := range s.pool {
		s.pool[i] = s.backend.NewRequest(i)
		s.pool[i].Significance = tierSignificance[tiers[i]]
	}
	s.calib = make([]serve.Request, calibSize)
	for i := range s.calib {
		s.calib[i] = s.backend.NewRequest(poolSize + i)
	}
	s.interval = openInterval(s.backend.CostAccurate)
	srv, err := serve.New(serve.Config{Workers: workers, QueueLimit: openQueue})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	srv.Start()
	s.drive(options{window: opt.warmup}, false)
	return s, nil
}

// openInterval is the spacing of arrivals: overload times the modeled
// capacity workers*1e9/CostAccurate, evenly spaced.
func openInterval(costAccurate float64) time.Duration {
	rate := overload * workers * 1e9 / costAccurate
	return time.Duration(float64(time.Second) / rate)
}

// dueTime is when the i-th request of a window is due.
func dueTime(start time.Time, interval time.Duration, i int64) time.Time {
	return start.Add(time.Duration(i) * interval)
}

func (s *serveOpen) close() { _ = s.srv.Close() } // Close only reports a second Close

// openTicket is one admitted request on its way from generator to collector.
type openTicket struct {
	tk        *serve.Ticket
	due       time.Time
	submit    time.Time // Submit called
	submitted time.Time // Submit returned
	idx       int32
	traced    bool
}

// calibration is one calibrator reading.
type calibration struct {
	at               time.Time
	accS, degS       float64 // CPU-seconds per bare body
	ratio, load      float64
	depth            int
	procCPU, selfCPU float64 // cumulative process / calibrator-thread CPU-seconds
}

// openRun is the raw record of one driven window.
type openRun struct {
	start              time.Time
	window             time.Duration
	latency            *segments // seconds from due time, by due time, in calibEvery slots
	done               *segments // one sample per resolved request, by completion time
	stalls             int       // times the generator overslept by more than maxCatchUp
	wait               []float64 // ticket submit→completion seconds
	waves              []float64 // ticket latency in waves
	late               []float64 // generator lateness per burst, seconds
	genBusy            time.Duration
	attempted, refused int64
	accurate, degraded int64
	dropped            int64
	goldNotAccurate    int64
	bySlot             [][2]int64 // accurate, degraded completions per calibration slot (by due time)
	calibs             []calibration
	submitNS           float64 // mean wall time of one Submit call
	before, after      serve.Totals
}

// drive runs the open loop for opt.window and returns its record. With
// measured false it is the warm-up: same load, nothing kept.
func (s *serveOpen) drive(opt options, measured bool) *openRun {
	run := &openRun{window: opt.window, before: s.srv.Totals()}
	slots := int(opt.window/calibEvery) + 1
	run.bySlot = make([][2]int64, slots)

	// The channel holds every ticket the server can have in flight
	// (QueueLimit queued + one wave being served), so the generator never
	// blocks on the collector.
	tickets := make(chan openTicket, 2*openQueue)
	stopCalib := make(chan struct{})
	var wg sync.WaitGroup

	run.start = time.Now()
	// For seconds at a time this host makes the waves half as long again (a
	// bare body on the calibrator's thread costs what it did, the cache-cold
	// ones in a wave do not), and the queue behind them amplifies that. The
	// quiet tenth of 100 ms slots still finds the quiet host in runs where no
	// whole second is quiet.
	run.latency = newSegments(run.start, opt.window, calibEvery)
	run.done = newSegments(run.start, opt.window, time.Second)
	end := run.start.Add(opt.window)

	// Calibrator: the workload's own bodies, bare, on a thread of its own,
	// timed in thread CPU time so being descheduled does not count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		at := 0
		for {
			c0 := threadCPU()
			for i := 0; i < calibBatch; i++ {
				s.calib[(at+i)%calibSize].Handler()
			}
			c1 := threadCPU()
			for i := 0; i < calibBatch; i++ {
				s.calib[(at+calibBatch+i)%calibSize].Degraded()
			}
			c2 := threadCPU()
			at = (at + 2*calibBatch) % calibSize
			run.calibs = append(run.calibs, calibration{
				at: time.Now(), accS: (c1 - c0) / calibBatch, degS: (c2 - c1) / calibBatch,
				ratio: s.srv.Ratio(), load: s.srv.Load(), depth: s.srv.Depth(),
				procCPU: processCPU(), selfCPU: c2,
			})
			select {
			case <-stopCalib:
				return
			case <-tick.C:
			}
		}
	}()

	// Collector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := opt.tr.buffer()
		for t := range tickets {
			outcome := t.tk.Wait()
			wait := t.tk.Latency()
			wavesLate := t.tk.WaveLatency()
			t.tk.Release()
			if t.traced {
				// One goroutine owns a span log, so the collector writes the
				// whole request tree once the ticket has resolved. The wait
				// runs from Submit's return to the completion the ticket
				// stamped, not to whenever the collector got round to it.
				done := t.submitted.Add(wait)
				root := buf.record("loadgen", "request", t.due, done, -1, int64(t.idx))
				buf.record("serve", "Server.Submit", t.submit, t.submitted, root.id(), int64(t.idx))
				buf.record("serve", "Ticket.Wait", t.submitted, done, root.id(), int64(t.idx))
			}
			switch outcome {
			case serve.OutcomeAccurate:
				run.accurate++
			case serve.OutcomeDegraded:
				run.degraded++
			case serve.OutcomeDropped:
				run.dropped++
			}
			if s.pool[t.idx].Significance == 1 && outcome != serve.OutcomeAccurate {
				run.goldNotAccurate++
			}
			if !measured {
				continue
			}
			run.latency.add(t.due, (t.submitted.Sub(t.due) + wait).Seconds())
			run.done.add(t.submitted.Add(wait), 1)
			run.wait = append(run.wait, wait.Seconds())
			run.waves = append(run.waves, float64(wavesLate))
			if slot := int(t.due.Sub(run.start) / calibEvery); slot < slots {
				switch outcome {
				case serve.OutcomeAccurate:
					run.bySlot[slot][0]++
				case serve.OutcomeDegraded:
					run.bySlot[slot][1]++
				}
			}
		}
	}()

	// Generator: wake every few arrivals, submit everything that is due.
	// Latency counts from the due time, so a late burst shows up in the
	// latency of every request in it.
	var submitWall time.Duration
	anchor, due := run.start, run.start
	for n := int64(0); due.Before(end); {
		now := time.Now()
		if now.Before(due) {
			time.Sleep(due.Sub(now) + 8*s.interval)
			continue
		}
		busy := now
		late := now.Sub(due)
		if late > maxCatchUp {
			// The generator itself was not running: the host froze the
			// whole VM, server included. Replaying the missed arrivals as
			// one burst would overflow the queue with load no user sent, so
			// the schedule resumes from now; the stall is counted and shows
			// in loadgen.late_max_s.
			anchor = anchor.Add(late)
			due = dueTime(anchor, s.interval, n)
			run.stalls++
		}
		if measured {
			run.late = append(run.late, late.Seconds())
			opt.tr.enable(run.done.index(now)%2 == 0)
		}
		for !due.After(now) && due.Before(end) {
			idx := s.next
			s.next = (s.next + 1) % poolSize
			t0 := time.Now()
			tk, err := s.srv.Submit(s.pool[idx])
			t1 := time.Now()
			submitWall += t1.Sub(t0)
			run.attempted++
			if err != nil {
				run.refused++
			} else {
				tickets <- openTicket{tk: tk, due: due, submit: t0, submitted: t1, idx: int32(idx),
					traced: n%traceEvery == 0 && opt.tr.tracing()}
			}
			n++
			due = dueTime(anchor, s.interval, n)
		}
		run.genBusy += time.Since(busy)
	}
	close(tickets)
	close(stopCalib)
	wg.Wait()
	opt.tr.enable(false)
	run.submitNS = float64(submitWall.Nanoseconds()) / float64(max(run.attempted, 1))

	// A wave resolves its tickets first and adds itself to the totals a
	// moment later: wait for the last wave's share to land.
	resolved := run.accurate + run.degraded + run.dropped
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		run.after = s.srv.Totals()
		if run.after.Completed-run.before.Completed >= resolved || time.Now().After(deadline) {
			break
		}
	}
	time.Sleep(time.Millisecond) // the counters after Completed follow within nanoseconds
	run.after = s.srv.Totals()
	return run
}

func (s *serveOpen) measure(opt options) (*result, error) {
	run := s.drive(opt, true)
	res := newResult()
	completed := run.accurate + run.degraded + run.dropped
	res.attempted = run.attempted
	res.failed = run.refused

	d := totalsDelta(run.after, run.before)
	res.check(run.refused == 0, "%d of %d requests refused", run.refused, run.attempted)
	res.check(d.Submitted == run.attempted, "Totals.Submitted moved by %d, generator submitted %d", d.Submitted, run.attempted)
	res.check(d.Completed == completed, "Totals.Completed moved by %d, collector resolved %d", d.Completed, completed)
	res.check(completed+run.refused == run.attempted, "%d tickets resolved + %d refused != %d attempted", completed, run.refused, run.attempted)
	res.check(d.Accurate == run.accurate && d.Degraded == run.degraded && d.Dropped == run.dropped,
		"outcome tallies %d/%d/%d differ from Totals %d/%d/%d", run.accurate, run.degraded, run.dropped, d.Accurate, d.Degraded, d.Dropped)
	res.check(run.goldNotAccurate == 0, "%d significance-1.0 requests not served accurately", run.goldNotAccurate)
	// Conservation again after Close has drained the queue; the instance's
	// own close is then a no-op.
	s.close()
	tot := s.srv.Totals()
	res.check(tot.Submitted == tot.Completed+tot.Rejected, "after Close: submitted %d != completed %d + rejected %d", tot.Submitted, tot.Completed, tot.Rejected)

	// CPU through the stack vs what the executed bodies cost bare, slot by
	// slot: each calibration prices the requests due in the 100 ms after it,
	// and the process CPU between it and the next calibration, less the
	// calibrator's own, is what the stack spent on them.
	var exec, allAcc bareRatio
	var perReq [2][]float64 // stack CPU-s per request: [untraced, traced] slots
	for i := 1; i < len(run.calibs); i++ {
		prev, c := run.calibs[i-1], run.calibs[i]
		slot := int(prev.at.Sub(run.start) / calibEvery)
		if slot >= len(run.bySlot) || int(c.at.Sub(run.start)/calibEvery) != slot+1 {
			continue // a late or dropped tick: the interval is not one slot
		}
		n := run.bySlot[slot]
		cpu := (c.procCPU - prev.procCPU) - (c.selfCPU - prev.selfCPU)
		if n[0]+n[1] == 0 || cpu <= 0 {
			continue
		}
		exec.add(cpu, float64(n[0])*prev.accS+float64(n[1])*prev.degS)
		allAcc.add(cpu, float64(n[0]+n[1])*prev.accS)
		traced := run.done.index(prev.at)%2 == 0
		perReq[b2i(traced)] = append(perReq[b2i(traced)], cpu/float64(n[0]+n[1]))
	}

	res.e2e["ops_per_s"] = quietDecile(run.done.rates(), false)
	res.e2e["latency_p50_s"] = quietDecile(run.latency.medians(), true)
	res.e2e["accurate_share"] = float64(run.accurate) / float64(completed)
	res.e2e["joules_per_op"] = d.Joules / float64(completed)
	res.e2e["overhead_ratio"] = exec.value()
	res.e2e["speedup"] = 1 / allAcc.value()

	waves := float64(d.Waves)
	var ratios, loads, depths []float64
	for _, c := range run.calibs {
		ratios = append(ratios, c.ratio)
		loads = append(loads, c.load)
		depths = append(depths, float64(c.depth))
	}
	res.layer["serve.submit_ns"] = run.submitNS
	res.layer["serve.ticket_wait_p50_s"] = median(run.wait)
	res.layer["serve.ticket_wait_p99_s"] = quantile(run.wait, 0.99)
	res.layer["serve.wave_latency_p50"] = median(run.waves)
	res.layer["serve.pace_period_s"] = s.srv.PacePeriod().Seconds()
	res.layer["serve.measured_period_s"] = s.srv.MeasuredPeriod().Seconds()
	res.layer["serve.waves_per_s"] = waves / run.window.Seconds()
	res.layer["serve.overrun_share"] = float64(d.Overruns) / waves
	res.layer["serve.admitted_per_wave"] = float64(completed) / waves
	res.layer["serve.depth_p50"] = median(depths)
	res.layer["serve.rejected_share"] = float64(run.refused) / float64(run.attempted)
	res.layer["serve.timedout_share"] = float64(d.TimedOut) / float64(run.attempted)
	first, last := run.calibs[0], run.calibs[len(run.calibs)-1]
	res.layer["serve.cpu_s_per_op"] = ((last.procCPU - first.procCPU) - (last.selfCPU - first.selfCPU)) / float64(completed)
	res.layer["adapt.steady_ratio"] = median(ratios)
	res.layer["adapt.ratio_iqr"] = quantile(ratios, 0.75) - quantile(ratios, 0.25)
	res.layer["adapt.load_p50"] = median(loads)
	res.layer["loadgen.late_p99_s"] = quantile(run.late, 0.99)
	res.layer["loadgen.late_max_s"] = quantile(run.late, 1)
	res.layer["loadgen.cpu_share"] = run.genBusy.Seconds() / run.window.Seconds()
	res.layer["loadgen.stalls"] = float64(run.stalls)
	if opt.tr != nil {
		res.layer["trace.overhead_share.serve_open"] = median(perReq[1])/median(perReq[0]) - 1
	}
	return res, nil
}

// totalsDelta is a - b, counter by counter.
func totalsDelta(a, b serve.Totals) serve.Totals {
	return serve.Totals{
		Submitted: a.Submitted - b.Submitted, Rejected: a.Rejected - b.Rejected,
		Completed: a.Completed - b.Completed, Accurate: a.Accurate - b.Accurate,
		Degraded: a.Degraded - b.Degraded, Dropped: a.Dropped - b.Dropped,
		TimedOut: a.TimedOut - b.TimedOut, Priority: a.Priority - b.Priority,
		Waves: a.Waves - b.Waves, Overruns: a.Overruns - b.Overruns,
		Joules: a.Joules - b.Joules,
	}
}
