package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/sig"
	"repro/sig/adapt"
	"repro/sig/serve"
)

// The traced run. End-to-end numbers never come from here: with tracing on,
// the benchmark wraps every call it makes into a layer in a span and replays
// the generated inputs one layer down at a time — sigserve over HTTP, the
// bare HTTP server; serve.Server with its pacer, then driven by explicit
// RunWave; shard.Router, sig.Runtime, a bare goroutine pool, a plain loop —
// so that a layer's cost is a subtraction between two rungs measured in the
// same run. The benchmark contract wants every per-layer metric from every
// `--trace 1` run, whichever workload it names, so every workload's rungs run
// in every traced run; the named workload gets twice the window of the others
// ("all", the label of a traced run without -workload, names none).

// spanLayers are the layers a span can belong to.
var spanLayers = []string{"loadgen", "sigserve", "serve", "shard", "sig", "harness", "bench"}

func runTraced(name string, opt options) (*result, error) {
	tr := newTracer()
	total := newResult()
	for _, w := range workloads() {
		o := opt
		o.tr, o.setups = tr, 1
		o.window = opt.window / 5
		if w.name == name {
			o.window *= 2
		}
		res, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		total.merge(w.name, res)
	}
	if err := serveLadder(opt.seed, opt.window/40, total); err != nil {
		return nil, err
	}

	spans := tr.all()
	self := selfByLayer(spans)
	var sum float64
	for _, s := range self {
		sum += s
	}
	for _, l := range spanLayers {
		total.layer["trace.self_share."+l] = self[l] / sum
	}
	total.layer["trace.spans"] = float64(len(spans))
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(buildDir, "trace-"+name+".json"), spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return total, nil
}

// merge folds one workload's result into the traced run's total.
func (r *result) merge(workload string, o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, p := range o.problems {
		r.problems = append(r.problems, workload+": "+p)
	}
	for k, v := range o.layer {
		r.layer[k] = v
	}
}

// nullTarget is the knob of the stand-alone controller replay.
type nullTarget struct{}

func (nullTarget) Name() string     { return "replay" }
func (nullTarget) SetRatio(float64) {}

// serveLadder is the rung below the paced server: the same admission path
// driven by explicit RunWave calls with trivial bodies, which prices a
// request's share of a wave with no pacer and no body; and below that the
// admission controller alone, replaying the waves just recorded.
func serveLadder(seed int64, dur time.Duration, res *result) error {
	srv, err := serve.New(serve.Config{Workers: workers, QueueLimit: openQueue})
	if err != nil {
		return err
	}
	defer srv.Close()
	backend := harness.SobelServeBackend(serveScale)
	nothing := func() {}
	const round = 2048
	tiers := tierSequence(seed, round)
	reqs := make([]serve.Request, round)
	for i := range reqs {
		// Declared like the sobel requests, so admission budgets and the
		// controller see the load they see in serve_open.
		reqs[i] = serve.Request{Significance: tierSignificance[tiers[i]], Handler: nothing, Degraded: nothing,
			CostAccurate: backend.CostAccurate, CostDegraded: backend.CostDegraded}
	}
	var waves []sig.WaveStats
	var wall time.Duration
	var admitted, submitted int64
	tickets := make([]*serve.Ticket, 0, round)
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		tickets = tickets[:0]
		for i := range reqs {
			tk, err := srv.Submit(reqs[i])
			res.attempted++
			if err != nil {
				res.failed++
				continue
			}
			tickets = append(tickets, tk)
		}
		submitted += int64(len(tickets))
		for srv.Depth() > 0 {
			t0 := time.Now()
			rep := srv.RunWave()
			wall += time.Since(t0)
			admitted += int64(rep.Admitted)
			waves = append(waves, rep.Stats)
		}
		for _, tk := range tickets {
			tk.Wait()
			tk.Release()
		}
	}
	res.check(admitted == submitted, "RunWave rung: admitted %d of %d submitted", admitted, submitted)
	res.layer["serve.runwave_ns_per_req"] = float64(wall.Nanoseconds()) / float64(admitted)

	perWave := workers * float64(serve.DefaultWavePeriod.Nanoseconds()) / backend.CostAccurate
	ctl, err := adapt.New(adapt.Config{Objective: adapt.TargetLoad, Budget: 1,
		Measure: func(ws sig.WaveStats) float64 { return float64(ws.Submitted) / perWave }})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, ws := range waves {
		ctl.Observe(nullTarget{}, ws)
	}
	res.layer["adapt.observe_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(waves))
	return nil
}
