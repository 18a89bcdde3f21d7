package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/bench/kmeans"
	"repro/internal/bench/sobel"
	"repro/internal/imaging"
	"repro/sig/serve"
)

// ServeBackend is a deterministic request source over a benchmark kernel:
// the pluggable workload behind cmd/sigserve and ServeStudy.
type ServeBackend struct {
	Name string
	// CostAccurate/CostDegraded are the per-request declared costs.
	CostAccurate, CostDegraded float64
	// NewRequest builds the i-th request of the stream (significance tier,
	// handlers, declared costs). Requests are independent: concurrent
	// bodies never share mutable state.
	NewRequest func(i int) serve.Request
}

// serveTier maps the request index onto its significance: nine cycling
// user tiers, every tenth request premium (the special 1.0 — always
// accurate).
func serveTier(i int) float64 {
	if i%10 == 9 {
		return 1.0
	}
	return float64(i%9+1) / 10
}

// SobelServeBackend is the sobel-thumbnailing service: each request renders
// one frame's edge map — the accurate 3×3 kernel, or the 2-point-gradient
// degradation under load.
func SobelServeBackend(scale float64) *ServeBackend {
	p := sobel.DefaultParams()
	// Thumbnail-sized frames: one request ≈ one thumbnail render.
	p.W, p.H = scaled(p.W/8, scale, 32), scaled(p.H/8, scale, 32)
	app := sobel.New(p)
	w, h := app.Size()
	costAcc, costDeg := app.ThumbCosts()
	return &ServeBackend{
		Name:         "sobel",
		CostAccurate: costAcc,
		CostDegraded: costDeg,
		NewRequest: func(i int) serve.Request {
			out := imaging.NewImage(w, h)
			req := serve.Request{
				Significance: serveTier(i),
				Handler:      func() { app.Thumb(out, true) },
				CostAccurate: costAcc,
				CostDegraded: costDeg,
			}
			req.Degraded = func() { app.Thumb(out, false) }
			return req
		},
	}
}

// KmeansServeBackend is the kmeans-scoring service: each request classifies
// a chunk of observations against trained centroids — all K centroids, or
// the restricted candidate search under load.
func KmeansServeBackend(scale float64) *ServeBackend {
	p := kmeans.DefaultParams()
	p.N = scaled(p.N/4, scale, p.K*16)
	p.Chunk = max(p.N/16, 64)
	app := kmeans.New(p)
	scorer := app.NewScorer(app.Sequential().Centroids)
	chunks := app.Len() / p.Chunk
	costAcc, costDeg := app.ScoreCosts(p.Chunk)
	return &ServeBackend{
		Name:         "kmeans",
		CostAccurate: costAcc,
		CostDegraded: costDeg,
		NewRequest: func(i int) serve.Request {
			lo := (i % chunks) * p.Chunk
			out := make([]int32, p.Chunk)
			req := serve.Request{
				Significance: serveTier(i),
				Handler:      func() { scorer.Score(out, lo, false) },
				CostAccurate: costAcc,
				CostDegraded: costDeg,
			}
			req.Degraded = func() { scorer.Score(out, lo, true) }
			return req
		},
	}
}

// ServeBackendByName resolves a -backend flag onto a request source of the
// given -scale, which must lie in (0,1].
func ServeBackendByName(name string, scale float64) (*ServeBackend, error) {
	if !(scale > 0 && scale <= 1) { // also NaN
		return nil, fmt.Errorf("harness: serve scale %v outside (0,1]", scale)
	}
	switch strings.ToLower(name) {
	case "", "sobel":
		return SobelServeBackend(scale), nil
	case "kmeans":
		return KmeansServeBackend(scale), nil
	}
	return nil, fmt.Errorf("harness: unknown serve backend %q (want sobel or kmeans)", name)
}

const (
	// serveBasePerWave is the light-load arrival rate in requests per wave,
	// and serveUtilization the fraction of a wave that many accurate
	// requests fill: the wave budget is sized from the two.
	serveBasePerWave = 8
	serveUtilization = 0.6
	// serveOverload is the step's multiple of the base arrival rate.
	serveOverload = 4.0
	// The pinned script: serveWaves open-loop waves with the overload step
	// over [serveStepAt, serveStepEnd), then serveClosedWaves closed-loop
	// waves, each loop on its own serveWorkers-worker server. Capacity is
	// workers × the wave period, so it does not follow GOMAXPROCS.
	serveWaves, serveStepAt, serveStepEnd = 28, 8, 16
	serveClosedWaves                      = 12
	serveWorkers                          = 2
)

// studyRequest builds the i-th request of the study's streams: the
// backend's request at the stream's tier, with every 16th request made
// drop-only (its degraded body stripped) so the studies exercise the
// zero-joule drop path. Live traffic (cmd/sigserve) uses the backend
// directly and always keeps the degraded handler.
func studyRequest(b *ServeBackend, i int) serve.Request {
	req := b.NewRequest(i)
	if i%16 == 15 {
		req.Degraded = nil
	}
	return req
}

// ServeWaveRow is one wave of the open-loop overload study.
type ServeWaveRow struct {
	Wave     int
	Offered  int
	Admitted int
	Depth    int
	Load     float64
	// Ratio ran the wave, NextRatio is the controller's command for the
	// next, Provided the wave's accurate fraction.
	Ratio, NextRatio, Provided  float64
	Accurate, Degraded, Dropped int
	Joules                      float64
}

// ServeResult is the outcome of the serving study.
type ServeResult struct {
	Backend string

	// Open-loop overload step.
	Rows []ServeWaveRow
	// P50/P99 are request latency percentiles in waves over every
	// completed request of the open-loop stream.
	P50, P99 int
	Rejected int64
	// PreStepRatio is the commanded ratio just before the step;
	// MinStepRatio the lowest command during it; RecoveredAfter how many
	// waves past the step's end the command climbed back within 0.05 of the
	// pre-step ratio (-1 = never).
	PreStepRatio   float64
	MinStepRatio   float64
	RecoveredAfter int
	// TotalJoules is the server's cumulative modeled energy, and
	// Outcomes the cumulative accounting, both after the drain.
	TotalJoules float64
	Outcomes    serve.Totals

	// Closed-loop segment: Clients concurrent callers, each submitting
	// its next request as the previous completes.
	Clients          int
	ClosedThroughput float64 // completed requests per wave
	ClosedRatio      float64 // final commanded ratio
	ClosedP99        int     // latency p99 in waves
}

// newServeRun builds a loop's server and its stream of the backend's study
// requests: capacity sized for serveBasePerWave at serveUtilization, a queue
// deep enough that the step sheds quality rather than requests.
func newServeRun(b *ServeBackend, workers int) (*studyRun, error) {
	s, err := newFrozenServer(serve.Config{
		Workers:    workers,
		QueueLimit: 64 * serveBasePerWave,
	}, serveBasePerWave*b.CostAccurate/serveUtilization)
	if err != nil {
		return nil, err
	}
	return &studyRun{s: s, next: func(i int) serve.Request { return studyRequest(b, i) }}, nil
}

// ServeStudy runs the serving-layer evaluation on the named backend ("sobel"
// or "kmeans"): an open-loop request stream with an overload step (offered
// load jumps serveOverload-fold over [serveStepAt, serveStepEnd)), then a
// closed-loop segment with a fixed client population. Declared request
// costs, the deterministic max-buffering policy and a deterministic arrival
// order make the whole study — ratio trajectory, outcomes, modeled joules —
// bit-identical across runs.
func ServeStudy(backend string) (ServeResult, error) {
	b, err := ServeBackendByName(backend, studyScale)
	if err != nil {
		return ServeResult{}, err
	}
	res := ServeResult{Backend: b.Name}
	for _, loop := range []func(*studyRun, *ServeResult) error{serveOpenLoop, serveClosedLoop} {
		r, err := newServeRun(b, serveWorkers)
		if err != nil {
			return res, err
		}
		if err := loop(r, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func serveOpenLoop(r *studyRun, res *ServeResult) error {
	for w := range serveWaves {
		offered := serveBasePerWave
		if w >= serveStepAt && w < serveStepEnd {
			offered *= serveOverload
		}
		rep := r.wave(offered)
		res.Rows = append(res.Rows, ServeWaveRow{
			Wave:     rep.Wave,
			Offered:  offered,
			Admitted: rep.Admitted,
			Depth:    rep.Depth,
			Load:     rep.Load,
			Ratio:    rep.Ratio, NextRatio: rep.NextRatio, Provided: rep.Provided,
			Accurate: rep.Accurate, Degraded: rep.Degraded, Dropped: rep.Dropped,
			Joules: rep.Joules,
		})
	}
	var lats []int // Close drains the remaining backlog
	if err := r.close(func(_, waves int) { lats = append(lats, waves) }); err != nil {
		return err
	}
	res.P50, res.P99 = percentiles(lats)
	res.Outcomes = r.s.Totals()
	res.Rejected = res.Outcomes.Rejected
	res.TotalJoules = res.Outcomes.Joules

	res.PreStepRatio = res.Rows[serveStepAt-1].NextRatio
	res.MinStepRatio = 1
	for _, row := range res.Rows[serveStepAt:serveStepEnd] {
		res.MinStepRatio = math.Min(res.MinStepRatio, row.NextRatio)
	}
	res.RecoveredAfter = -1
	for w := serveStepEnd; w < len(res.Rows); w++ {
		if res.Rows[w].NextRatio >= res.PreStepRatio-0.05 {
			res.RecoveredAfter = w - serveStepEnd
			break
		}
	}
	return nil
}

func serveClosedLoop(r *studyRun, res *ServeResult) error {
	// 3x the requests a full-quality wave can serve: saturating, but
	// absorbable by degradation.
	perWave := float64(serveBasePerWave) / serveUtilization
	res.Clients = 3 * int(perWave)
	var lats []int
	completed, total := res.Clients, 0
	for range serveClosedWaves {
		// Each client whose request completed submits its next one.
		rep := r.wave(completed)
		res.ClosedRatio = rep.NextRatio
		completed = r.reap(func(_, waves int) { lats = append(lats, waves) })
		total += completed
	}
	r.offer(completed)
	if err := r.close(func(int, int) {}); err != nil { // the remaining in-flight requests
		return err
	}
	res.ClosedThroughput = float64(total) / serveClosedWaves
	_, res.ClosedP99 = percentiles(lats)
	return nil
}

// PrintServeStudy renders the study: the per-wave table, an ASCII plot of
// the commanded ratio across the overload step, and the summary lines the
// gating tests read.
func PrintServeStudy(w io.Writer, r ServeResult) {
	fmt.Fprintf(w, "Serve study (%s backend): open-loop %.0fx overload step over waves [%d,%d)\n",
		r.Backend, serveOverload, serveStepAt, serveStepEnd)
	fmt.Fprintf(w, "%-5s %7s %7s %6s %6s %6s %6s %6s %5s/%-5s/%-4s %10s\n",
		"wave", "offered", "admit", "depth", "load", "req%", "prov%", "next%", "acc", "deg", "drop", "energy")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-5d %7d %7d %6d %6.2f %6.1f %6.1f %6.1f %5d/%-5d/%-4d %9.4fJ\n",
			row.Wave, row.Offered, row.Admitted, row.Depth, row.Load,
			100*row.Ratio, 100*row.Provided, 100*row.NextRatio,
			row.Accurate, row.Degraded, row.Dropped, row.Joules)
	}
	fmt.Fprintln(w)
	plotServeRatio(w, r)
	fmt.Fprintln(w)
	rec := "never"
	if r.RecoveredAfter >= 0 {
		rec = fmt.Sprintf("%d waves", r.RecoveredAfter)
	}
	fmt.Fprintf(w, "open loop: ratio %.3f -> min %.3f under the step, recovered within 0.05 after %s\n",
		r.PreStepRatio, r.MinStepRatio, rec)
	fmt.Fprintf(w, "open loop: latency p50 %d / p99 %d waves, %d rejected, %.4f J total (%d acc / %d deg / %d drop)\n",
		r.P50, r.P99, r.Rejected, r.TotalJoules,
		r.Outcomes.Accurate, r.Outcomes.Degraded, r.Outcomes.Dropped)
	fmt.Fprintf(w, "closed loop: %d clients -> %.1f req/wave at ratio %.3f, latency p99 %d waves\n",
		r.Clients, r.ClosedThroughput, r.ClosedRatio, r.ClosedP99)
}

// plotServeRatio draws the commanded-ratio trajectory ('*') with the
// overload step bracketed by '|' columns.
func plotServeRatio(w io.Writer, r ServeResult) {
	const levels = 10
	fmt.Fprintln(w, "commanded ratio vs wave ('*' trajectory, '|' overload step bounds):")
	for lvl := levels; lvl >= 0; lvl-- {
		ratio := float64(lvl) / levels
		var b strings.Builder
		fmt.Fprintf(&b, "%4.1f ", ratio)
		for i, row := range r.Rows {
			ch := byte(' ')
			if i == serveStepAt || i == serveStepEnd {
				ch = '|'
			}
			if math.Abs(row.NextRatio-ratio) <= 0.5/levels {
				ch = '*'
			}
			b.WriteByte(ch)
		}
		fmt.Fprintln(w, b.String())
	}
}
