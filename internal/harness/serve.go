package harness

import (
	"errors"
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

// serveScenario is a loop's frozen server on serveWorkers workers and its
// stream of the backend's study requests: capacity sized for
// serveBasePerWave at serveUtilization, a queue deep enough that the step
// sheds quality rather than requests.
func serveScenario(b *ServeBackend) scenario {
	return scenario{
		cfg:    serve.Config{Workers: serveWorkers, QueueLimit: 64 * serveBasePerWave},
		budget: serveBasePerWave * b.CostAccurate / serveUtilization,
		stream: func(i int) serve.Request { return studyRequest(b, i) },
	}
}

// ServeStudy prints the serving-layer evaluation on the named backend
// ("sobel" or "kmeans") and fails on a broken contract: an open-loop request
// stream with an overload step (offered load jumps serveOverload-fold over
// [serveStepAt, serveStepEnd)), then a closed-loop segment with a fixed
// client population. Under the step the admission controller must shed
// quality instead of requests or queueing unboundedly, and recover once it
// ends. Declared request costs, the deterministic max-buffering policy and
// a deterministic arrival order make the whole study — ratio trajectory,
// outcomes, modeled joules — bit-identical across runs and worker counts.
func ServeStudy(w io.Writer, backend string) error {
	return serveStudy(&studyLog{w: w, workers: 1}, backend)
}

func serveStudy(l *studyLog, backend string) error {
	b, err := ServeBackendByName(backend, studyScale)
	if err != nil {
		return err
	}
	if err := errors.Join(serveOpenLoop(l, b), serveClosedLoop(l, b)); err != nil {
		return fmt.Errorf("serve study (%s backend): %w", b.Name, err)
	}
	return nil
}

// serveOpenLoop plays the overload step: the base rate, stepped
// serveOverload-fold over waves [serveStepAt, serveStepEnd).
func serveOpenLoop(l *studyLog, b *ServeBackend) error {
	fmt.Fprintf(l.w, "Serve study (%s backend): open-loop %.0fx overload step over waves [%d,%d)\n",
		b.Name, serveOverload, serveStepAt, serveStepEnd)
	var lats []int // Close drains the remaining backlog
	rows, tot, err := serveScenario(b).play(l, func(r *studyRun) error {
		for w := range serveWaves {
			if w >= serveStepAt && w < serveStepEnd {
				r.wave(serveBasePerWave * serveOverload)
			} else {
				r.wave(serveBasePerWave)
			}
		}
		return nil
	}, func(_, waves int) { lats = append(lats, waves) })
	if err != nil {
		return err
	}
	p50, p99 := percentiles(lats)
	// The commanded ratio just before the step, its lowest during it, and
	// how many waves past the step's end it climbed back within 0.05 of the
	// pre-step ratio (-1 = never).
	pre, minStep, recovered, maxDepth := rows[serveStepAt-1].Control.NextRatio, 1.0, -1, 0
	for w, row := range rows {
		maxDepth = max(maxDepth, row.Depth)
		if next := row.Control.NextRatio; w >= serveStepEnd && recovered < 0 && next >= pre-0.05 {
			recovered = w - serveStepEnd
		} else if w >= serveStepAt && w < serveStepEnd {
			minStep = math.Min(minStep, next)
		}
	}

	fmt.Fprintln(l.w)
	plotServeRatio(l.w, rows)
	fmt.Fprintln(l.w)
	rec := "never"
	if recovered >= 0 {
		rec = fmt.Sprintf("%d waves", recovered)
	}
	fmt.Fprintf(l.w, "open loop: ratio %.3f -> min %.3f under the step, recovered within 0.05 after %s\n",
		pre, minStep, rec)
	fmt.Fprintf(l.w, "open loop: latency p50 %d / p99 %d waves, %d rejected, %.4f J total (%d acc / %d deg / %d drop)\n",
		p50, p99, tot.Rejected, tot.Joules, tot.Accurate, tot.Degraded, tot.Dropped)

	return errors.Join(
		broken(tot.Rejected == 0, "%d requests rejected: overload must shed quality before requests", tot.Rejected),
		broken(pre >= 0.95, "pre-step ratio %.3f, want ~1 under light load", pre),
		broken(minStep <= pre-0.3, "ratio only fell to %.3f during the step (pre-step %.3f)", minStep, pre),
		broken(p99 <= 6, "open-loop p99 latency %d waves, want <= 6 (queue must stay bounded)", p99),
		broken(recovered >= 0 && recovered <= 8, "recovered after %d waves, want within 8 of the step ending", recovered),
		broken(maxDepth <= 8*serveBasePerWave, "queue depth peaked at %d (> %d): shedding did not bound the backlog",
			maxDepth, 8*serveBasePerWave),
		// The stream's drop-only requests (no degraded body) must show up as
		// drops — charged zero modeled joules by the runtime.
		broken(tot.Dropped > 0, "no dropped outcomes: the drop-only tier was not exercised"),
		broken(tot.Accurate+tot.Degraded+tot.Dropped == tot.Completed, "outcome conservation broken: %+v", tot))
}

// serveClosedLoop plays a saturating client population, each client
// submitting its next request as the previous completes; it must be served
// at a degraded ratio with bounded latency.
func serveClosedLoop(l *studyLog, b *ServeBackend) error {
	// 3x the requests a full-quality wave can serve: saturating, but
	// absorbable by degradation.
	perWave := float64(serveBasePerWave) / serveUtilization
	clients := 3 * int(perWave)
	fmt.Fprintf(l.w, "closed loop: %d clients, each resubmitting once its request completes, %d waves\n",
		clients, serveClosedWaves)
	var lats []int
	total := 0
	rows, _, err := serveScenario(b).play(l, func(r *studyRun) error {
		completed := clients
		for range serveClosedWaves {
			r.wave(completed)
			completed = r.reap(func(_, waves int) { lats = append(lats, waves) })
			total += completed
		}
		r.offer(completed) // Close serves the remaining in-flight requests
		return nil
	}, nil)
	if err != nil {
		return err
	}
	ratio := rows[len(rows)-1].Control.NextRatio
	_, p99 := percentiles(lats)
	fmt.Fprintf(l.w, "closed loop: %d clients -> %.1f req/wave at ratio %.3f, latency p99 %d waves\n",
		clients, float64(total)/serveClosedWaves, ratio, p99)
	return errors.Join(
		broken(ratio <= 0.9, "closed-loop ratio %.3f: %d clients should saturate the budget", ratio, clients),
		broken(p99 <= 6, "closed-loop p99 %d waves, want <= 6", p99))
}

// plotServeRatio draws the commanded-ratio trajectory ('*') with the
// overload step bracketed by '|' columns.
func plotServeRatio(w io.Writer, rows []waveRow) {
	const levels = 10
	fmt.Fprintln(w, "commanded ratio vs wave ('*' trajectory, '|' overload step bounds):")
	for lvl := levels; lvl >= 0; lvl-- {
		ratio := float64(lvl) / levels
		var b strings.Builder
		fmt.Fprintf(&b, "%4.1f ", ratio)
		for i, row := range rows {
			ch := byte(' ')
			if i == serveStepAt || i == serveStepEnd {
				ch = '|'
			}
			if math.Abs(row.Control.NextRatio-ratio) <= 0.5/levels {
				ch = '*'
			}
			b.WriteByte(ch)
		}
		fmt.Fprintln(w, b.String())
	}
}
