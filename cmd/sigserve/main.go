// Command sigserve is the significance-aware load-shedding service front
// end: an HTTP server that admits each request into the sig/serve wave
// pipeline with a significance derived from its user tier. Under overload
// the admission controller degrades response quality (cheap degraded
// handlers, then drops for best-effort traffic) before it rejects anything.
//
// Usage:
//
//	sigserve [-addr :8080] [-backend sobel|kmeans] [-scale 0.25]
//	         [-workers 0] [-period 5ms] [-queue 4096]
//	         [-min-period 0]
//	         [-minratio 0] [-target-load 1.0] [-deadline 0]
//	         [-priority-at 0] [-quality-floor 0] [-quality-window 0]
//
// The server runs every wave on one sig runtime of -workers workers
// (default GOMAXPROCS). A -scale outside (0,1] is a usage error.
//
// -deadline D gives every request a default deadline D from arrival
// (0 = none); a request may override it with ?deadline_ms=N. Requests that
// expire before Submit are rejected 504; requests that expire while queued
// resolve as the timed-out outcome, also 504, at zero modeled joules.
// Queue-full rejections are 503 with a Retry-After header carrying the
// server's backlog-drain estimate, priced in measured wave periods.
//
// -period P is the nominal wave cadence; the background pump measures each
// wave's wall time and retimes itself toward the EWMA within [-min-period,
// 8×P] (-min-period defaults to P/4). Waves that outrun the cadence are
// counted, never dropped — /stats reports overruns and the measured and
// paced periods, /metrics the matching gauges. The cadence is the batching
// window while quality is being shed; a request that arrives once its wave
// is due fires it without waiting for the timer, and at ratio 1.0 a request
// that finds the server idle fires its wave at once (early_waves in /stats
// counts the waves that started before they were due).
//
// -priority-at S (in (0,1]) enables the priority admission lane: requests
// with significance >= S (e.g. tier=gold at 1.0) queue in a reserved slice
// of the limit and are drained ahead of the bulk FIFO each wave.
// -quality-floor F holds the mean provided accuracy ratio over the last
// -quality-window waves (default 16) at or above F — the windowed quality
// SLO; individual waves may still dip below it.
//
// Endpoints:
//
//	GET /work?tier=gold|silver|bronze|batch   serve one request at the
//	    (or ?sig=0.7) [&deadline_ms=50]       tier's significance
//	GET /stats                                serving counters + ratio
//	GET /metrics                              Prometheus text exposition
//	GET /healthz                              liveness: the process answers
//	GET /readyz                               readiness: 200 while admitting,
//	                                          503 once shutdown has begun
//
// Example:
//
//	sigserve -backend sobel -scale 0.1 &
//	for i in $(seq 64); do curl -s 'localhost:8080/work?tier=bronze' & done
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/sig/serve"
)

// tiers maps user tiers onto significances: gold is the special 1.0
// (never degraded), batch the special 0.0 (always degraded or dropped).
var tiers = map[string]float64{
	"gold":   1.0,
	"silver": 0.7,
	"bronze": 0.3,
	"batch":  0.0,
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		backendSel = flag.String("backend", "sobel", "request backend: sobel or kmeans")
		scale      = flag.Float64("scale", 0.25, "backend problem scale in (0,1]")
		workers    = flag.Int("workers", 0, "runtime worker goroutines (0 = GOMAXPROCS)")
		period     = flag.Duration("period", serve.DefaultWavePeriod, "nominal wave period (the pacer retimes to the measured wall within [min-period, 8x period])")
		minPeriod  = flag.Duration("min-period", 0, "pacer cadence floor (0 = period/4)")
		queue      = flag.Int("queue", serve.DefaultQueueLimit, "admission queue limit")
		minRatio   = flag.Float64("minratio", 0, "quality contract: lowest accuracy ratio")
		targetLoad = flag.Float64("target-load", serve.DefaultTargetLoad, "admission controller load cap")
		deadline   = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
		priorityAt = flag.Float64("priority-at", 0, "priority lane threshold: significance at or above it bypasses the bulk queue (0 = no lane)")
		floor      = flag.Float64("quality-floor", 0, "windowed quality SLO: mean provided ratio over the window stays at or above this (0 = none)")
		floorWin   = flag.Int("quality-window", 0, "quality-floor averaging window in waves (0 = default)")
	)
	flag.Parse()

	// Flag combinations that can only be mistakes fail at parse time with
	// usage, not as a late serve.New error after the backend spin-up.
	if *floorWin > 0 && *floor == 0 {
		fmt.Fprintln(os.Stderr, "sigserve: -quality-window requires -quality-floor")
		flag.Usage()
		os.Exit(2)
	}

	backend, err := harness.ServeBackendByName(*backendSel, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigserve:", err)
		os.Exit(2)
	}
	cfg := serve.Config{
		Workers:       *workers,
		QueueLimit:    *queue,
		WavePeriod:    *period,
		MinPeriod:     *minPeriod,
		MinRatio:      *minRatio,
		TargetLoad:    *targetLoad,
		PriorityAt:    *priorityAt,
		QualityFloor:  *floor,
		QualityWindow: *floorWin,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigserve:", err)
		os.Exit(2)
	}
	handler := newHandler(srv, backend, *deadline)
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigserve:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("sigserve: %s backend on %s (period %v, queue %d, minratio %.2f)",
		backend.Name, *addr, *period, *queue, *minRatio)
	if err := run(ctx, ln, handler, srv); err != nil {
		fmt.Fprintln(os.Stderr, "sigserve:", err)
		os.Exit(1)
	}
	tot := srv.Totals()
	log.Printf("sigserve: served %d (%d acc / %d deg / %d drop), rejected %d, %.4f J modeled",
		tot.Completed, tot.Accurate, tot.Degraded, tot.Dropped, tot.Rejected, tot.Joules)
}

// shutdownGrace bounds how long run waits for in-flight requests to be
// answered once its context is cancelled.
const shutdownGrace = 5 * time.Second

// run serves h on ln until ctx is cancelled, then shuts down in the order that
// loses no accepted request: /readyz turns 503, the listener closes, every
// request already in a handler gets its reply — its ticket resolves on the
// waves srv's pump keeps firing — and only when the last handler has returned
// (or shutdownGrace has passed) does srv.Close stop admission and close the
// runtime. Serve returns the moment Shutdown is called, not when it is done, so
// run returns — and the process may exit — only after Shutdown has.
func run(ctx context.Context, ln net.Listener, h *front, srv *serve.Server) error {
	httpSrv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served: // the listener failed under us
		return errors.Join(err, srv.Close())
	case <-ctx.Done():
	}
	h.draining.Store(true)
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx)
	<-served // http.ErrServerClosed
	return errors.Join(err, srv.Close())
}

// front is the HTTP face of one serve.Server: the mux newHandler builds and
// the word run sets when shutdown begins, so /readyz stops advertising the
// server before its listener closes.
type front struct {
	*http.ServeMux
	draining atomic.Bool
}

// workReply is the body of a served /work request. Its fields are in the
// order encoding/json gives the keys of a map — alphabetical — which is what
// the reply was encoded from before; clients see the same bytes.
type workReply struct {
	CurrentRatio float64 `json:"current_ratio"`
	LatencyMS    float64 `json:"latency_ms"`
	Outcome      string  `json:"outcome"`
	Significance float64 `json:"significance"`
	WaveLatency  int     `json:"wave_latency"`
}

// newHandler is the HTTP front of srv: /work admits one request of backend
// (deadline is the default for requests that name none, 0 = none) and
// replies when its ticket resolves; /stats, /metrics, /healthz and /readyz
// report.
func newHandler(srv *serve.Server, backend *harness.ServeBackend, deadline time.Duration) *front {
	var seq atomic.Int64
	mux := http.NewServeMux()
	f := &front{ServeMux: mux}
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		req := backend.NewRequest(int(seq.Add(1) - 1))
		query := r.URL.Query()
		if sig, ok, err := requestSignificance(query); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		} else if ok {
			req.Significance = sig
		}
		start := time.Now()
		if d, ok, err := requestDeadline(query, deadline, start); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		} else if ok {
			req.Deadline = d
		}
		tk, err := srv.Submit(req)
		var oe *serve.OverloadError
		switch {
		case errors.Is(err, serve.ErrDeadlineExpired):
			http.Error(w, "deadline expired before admission", http.StatusGatewayTimeout)
			return
		case errors.As(err, &oe):
			w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
			http.Error(w, "overloaded: admission queue full", http.StatusServiceUnavailable)
			return
		case errors.Is(err, serve.ErrClosed):
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		select {
		case <-tk.Done():
		case <-r.Context().Done():
			// The wave still completes the work; only the caller left. This
			// is the caller's last use of the ticket, so it is Released: the
			// server's own reference keeps it out of the pool until the
			// server resolves it.
			tk.Release()
			http.Error(w, "client gave up", http.StatusRequestTimeout)
			return
		}
		// Read everything the reply needs, then hand the ticket back to the
		// pool — no accessor may follow Release.
		outcome, waveLatency := tk.Outcome(), tk.WaveLatency()
		tk.Release()
		if outcome == serve.OutcomeTimedOut {
			http.Error(w, "deadline expired in queue", http.StatusGatewayTimeout)
			return
		}
		writeJSON(w, workReply{
			CurrentRatio: srv.Ratio(),
			LatencyMS:    float64(time.Since(start).Microseconds()) / 1000,
			Outcome:      outcome.String(),
			Significance: req.Significance,
			WaveLatency:  waveLatency,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		tot := srv.Totals()
		bulkDepth, prioDepth := srv.LaneDepths()
		writeJSON(w, map[string]any{
			"backend":            backend.Name,
			"ratio":              srv.Ratio(),
			"load":               srv.Load(),
			"budget":             srv.Budget(),
			"depth":              srv.Depth(),
			"bulk_depth":         bulkDepth,
			"priority_depth":     prioDepth,
			"waves":              tot.Waves,
			"overruns":           tot.Overruns,
			"early_waves":        tot.EarlyWaves,
			"measured_period_ms": float64(srv.MeasuredPeriod().Microseconds()) / 1000,
			"pace_period_ms":     float64(srv.PacePeriod().Microseconds()) / 1000,
			"submitted":          tot.Submitted,
			"rejected":           tot.Rejected,
			"completed":          tot.Completed,
			"accurate":           tot.Accurate,
			"degraded":           tot.Degraded,
			"dropped":            tot.Dropped,
			"timedout":           tot.TimedOut,
			"priority":           tot.Priority,
			"joules":             tot.Joules,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = srv.WriteMetrics(w)
	})
	// Liveness: the process answers (the benchmark's start-up poll).
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness: a /work sent now would be admitted and routed.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			http.Error(w, "not admitting", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return f
}

// requestSignificance resolves ?tier= (named) or ?sig= (numeric) to a
// significance; ok is false when neither is present.
func requestSignificance(query url.Values) (sig float64, ok bool, err error) {
	if tier := query.Get("tier"); tier != "" {
		s, found := tiers[tier]
		if !found {
			return 0, false, fmt.Errorf("unknown tier %q (want gold, silver, bronze or batch)", tier)
		}
		return s, true, nil
	}
	if raw := query.Get("sig"); raw != "" {
		s, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(s >= 0 && s <= 1) { // also NaN
			return 0, false, fmt.Errorf("sig must be a number in [0,1], got %q", raw)
		}
		return s, true, nil
	}
	return 0, false, nil
}

// requestDeadline resolves the request's deadline: ?deadline_ms=N wins,
// otherwise the server-wide -deadline default applies; ok is false when
// neither is set.
func requestDeadline(query url.Values, def time.Duration, now time.Time) (time.Time, bool, error) {
	if raw := query.Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		// A NaN fails ms > 0; +Inf, and any span past a Duration's ~292
		// years, fails the range test: converting it would wrap negative.
		ns := ms * float64(time.Millisecond)
		if err != nil || !(ms > 0) || ns >= math.MaxInt64 {
			return time.Time{}, false, fmt.Errorf("deadline_ms must be a positive number of milliseconds that fits a duration, got %q", raw)
		}
		return now.Add(time.Duration(ns)), true, nil
	}
	if def > 0 {
		return now.Add(def), true, nil
	}
	return time.Time{}, false, nil
}

// retryAfterSeconds renders a backoff hint as the integral seconds the
// Retry-After header requires, rounding sub-second hints up to 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
