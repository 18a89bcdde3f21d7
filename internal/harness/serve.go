package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
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
			hi := lo + p.Chunk
			req := serve.Request{
				Significance: serveTier(i),
				Handler:      func() { scorer.Score(lo, hi, false) },
				CostAccurate: costAcc,
				CostDegraded: costDeg,
			}
			req.Degraded = func() { scorer.Score(lo, hi, true) }
			return req
		},
	}
}

// ServeBackendByName resolves a -backend flag onto a request source.
func ServeBackendByName(name string, scale float64) (*ServeBackend, error) {
	switch strings.ToLower(name) {
	case "", "sobel":
		return SobelServeBackend(scale), nil
	case "kmeans":
		return KmeansServeBackend(scale), nil
	}
	return nil, fmt.Errorf("harness: unknown serve backend %q (want sobel or kmeans)", name)
}

// ServeConfig parameterizes ServeStudy. Zero fields take defaults.
type ServeConfig struct {
	// Scale in (0,1] sizes the backend's per-request work.
	Scale float64
	// Workers per runtime shard (0 = 2). Capacity is workers × the wave
	// period, so the default is a constant, not GOMAXPROCS.
	Workers int
	// Shards is the size of the shard.Router fleet behind the server (0 = 1).
	// Shards ≥ 2 is the sharded overload scenario, with the hierarchical
	// admission controller (global TargetLoad over merged waves, per-shard
	// trim below).
	Shards int
	// Backend is "sobel" (default) or "kmeans".
	Backend string
	// Waves is the open-loop stream length (default 28); the overload
	// step spans [StepAt, StepEnd) (defaults 8, 16).
	Waves, StepAt, StepEnd int
	// ClosedWaves is the length of the closed-loop segment (default 12).
	ClosedWaves int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Waves <= 0 {
		c.Waves = 28
	}
	// The step must start inside the stream (StepAt in [1, Waves-1]) and
	// end after it starts, at the latest when the stream does — whatever
	// combination the caller asked for.
	c.Waves = max(c.Waves, 4)
	if c.StepAt <= 0 {
		c.StepAt = 8
	}
	c.StepAt = min(c.StepAt, c.Waves-1)
	if c.StepEnd <= c.StepAt || c.StepEnd > c.Waves {
		c.StepEnd = min(c.StepAt+8, c.Waves)
	}
	if c.ClosedWaves <= 0 {
		c.ClosedWaves = 12
	}
	return c
}

const (
	// serveBasePerWave is the light-load arrival rate in requests per wave,
	// and serveUtilization the fraction of a wave that many accurate
	// requests fill: the wave budget is sized from the two.
	serveBasePerWave = 8
	serveUtilization = 0.6
	// serveOverload is the step's multiple of the base arrival rate.
	serveOverload = 4.0
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
	Backend     string
	Shards      int // as configured: 0/1 = one-shard fleet; ≥ 2 = sharded fleet
	BasePerWave int
	Overload    float64
	StepAt      int
	StepEnd     int

	// Open-loop overload step.
	Rows []ServeWaveRow
	// P50/P99 are request latency percentiles in waves over every
	// completed request of the open-loop stream.
	P50, P99 int
	Rejected int64
	// PreStepRatio is the commanded ratio just before the step;
	// MinStepRatio the lowest command during it; RecoveredAfter how many
	// waves past StepEnd the command climbed back within 0.05 of the
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

// newStudyServer builds the study's server: capacity sized for
// serveBasePerWave at serveUtilization, a queue deep enough that the step
// sheds quality rather than requests.
func newStudyServer(cfg ServeConfig, b *ServeBackend) (*serve.Server, error) {
	return newFrozenServer(serve.Config{
		Workers:    cfg.Workers,
		Shards:     cfg.Shards,
		QueueLimit: 64 * serveBasePerWave,
	}, serveBasePerWave*b.CostAccurate/serveUtilization)
}

// ServeStudy runs the serving-layer evaluation: an open-loop request
// stream with an overload step (offered load jumps serveOverload-fold for
// [StepAt, StepEnd) waves), then a closed-loop segment with a fixed client
// population. Declared request costs, the deterministic max-buffering
// policy and a deterministic arrival order make the whole study — ratio
// trajectory, outcomes, modeled joules — bit-identical across runs.
func ServeStudy(cfg ServeConfig) (ServeResult, error) {
	cfg = cfg.withDefaults()
	backend, err := ServeBackendByName(cfg.Backend, cfg.Scale)
	if err != nil {
		return ServeResult{}, err
	}
	res := ServeResult{
		Backend:     backend.Name,
		Shards:      cfg.Shards,
		BasePerWave: serveBasePerWave,
		Overload:    serveOverload,
		StepAt:      cfg.StepAt,
		StepEnd:     cfg.StepEnd,
	}
	if err := serveOpenLoop(cfg, backend, &res); err != nil {
		return res, err
	}
	if err := serveClosedLoop(cfg, backend, &res); err != nil {
		return res, err
	}
	return res, nil
}

func serveOpenLoop(cfg ServeConfig, backend *ServeBackend, res *ServeResult) error {
	s, err := newStudyServer(cfg, backend)
	if err != nil {
		return err
	}
	var tickets []*serve.Ticket
	seq := 0
	for w := 0; w < cfg.Waves; w++ {
		offered := serveBasePerWave
		if w >= cfg.StepAt && w < cfg.StepEnd {
			offered *= serveOverload
		}
		for i := 0; i < offered; i++ {
			tk, err := s.Submit(studyRequest(backend, seq))
			seq++
			if err != nil {
				continue // counted by the server's Rejected total
			}
			tickets = append(tickets, tk)
		}
		rep := s.RunWave()
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
	if err := s.Close(); err != nil { // drains the remaining backlog
		return err
	}

	lats := make([]int, 0, len(tickets))
	for _, tk := range tickets {
		lats = append(lats, tk.WaveLatency())
		tk.Release() // Close resolved every accepted ticket
	}
	sort.Ints(lats)
	if len(lats) > 0 {
		res.P50 = lats[len(lats)*50/100]
		res.P99 = lats[len(lats)*99/100]
	}
	res.Outcomes = s.Totals()
	res.Rejected = res.Outcomes.Rejected
	res.TotalJoules = res.Outcomes.Joules

	res.PreStepRatio = res.Rows[cfg.StepAt-1].NextRatio
	res.MinStepRatio = 1
	for _, r := range res.Rows[cfg.StepAt:cfg.StepEnd] {
		res.MinStepRatio = math.Min(res.MinStepRatio, r.NextRatio)
	}
	res.RecoveredAfter = -1
	for w := cfg.StepEnd; w < len(res.Rows); w++ {
		if res.Rows[w].NextRatio >= res.PreStepRatio-0.05 {
			res.RecoveredAfter = w - cfg.StepEnd
			break
		}
	}
	return nil
}

func serveClosedLoop(cfg ServeConfig, backend *ServeBackend, res *ServeResult) error {
	s, err := newStudyServer(cfg, backend)
	if err != nil {
		return err
	}
	// 3x the requests a full-quality wave can serve: saturating, but
	// absorbable by degradation.
	perWave := float64(serveBasePerWave) / serveUtilization
	clients := 3 * int(perWave)
	res.Clients = clients

	outstanding := make([]*serve.Ticket, 0, clients)
	var lats []int
	completedTotal := 0
	seq := 0
	submit := func() {
		tk, err := s.Submit(studyRequest(backend, seq))
		seq++
		if err == nil {
			outstanding = append(outstanding, tk)
		}
	}
	for i := 0; i < clients; i++ {
		submit()
	}
	var lastRatio float64
	for w := 0; w < cfg.ClosedWaves; w++ {
		rep := s.RunWave()
		lastRatio = rep.NextRatio
		// Each completed client immediately submits its next request.
		still := outstanding[:0]
		completed := 0
		for _, tk := range outstanding {
			select {
			case <-tk.Done():
				lats = append(lats, tk.WaveLatency())
				tk.Release()
				completed++
			default:
				still = append(still, tk)
			}
		}
		outstanding = still
		completedTotal += completed
		for i := 0; i < completed; i++ {
			submit()
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	for _, tk := range outstanding {
		tk.Release() // Close resolved the remaining in-flight requests
	}
	res.ClosedThroughput = float64(completedTotal) / float64(cfg.ClosedWaves)
	res.ClosedRatio = lastRatio
	sort.Ints(lats)
	if len(lats) > 0 {
		res.ClosedP99 = lats[len(lats)*99/100]
	}
	return nil
}

// PrintServeStudy renders the study: the per-wave table, an ASCII plot of
// the commanded ratio across the overload step, and the summary lines the
// gating tests read.
func PrintServeStudy(w io.Writer, r ServeResult) {
	engine := ""
	if r.Shards >= 2 {
		engine = fmt.Sprintf(", %d shards", r.Shards)
	}
	fmt.Fprintf(w, "Serve study (%s backend%s): open-loop %.0fx overload step over waves [%d,%d)\n",
		r.Backend, engine, r.Overload, r.StepAt, r.StepEnd)
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
			if i == r.StepAt || i == r.StepEnd {
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
