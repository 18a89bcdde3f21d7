package serve

import (
	"fmt"
	"io"
	"strconv"
)

// WriteMetrics renders the server's state in the Prometheus text exposition
// format (version 0.0.4): cumulative serving counters, the controller's
// ratio and load signal against the wave budget, per-lane queue
// depths and limits, and the per-lane wave-latency histogram (latency in
// waves — the serving layer's deterministic latency unit). cmd/sigserve
// mounts it at /metrics; anything that can write an io.Writer can scrape a
// Server directly. The serving counters are one Totals snapshot, so they
// conserve on every scrape (see Totals); the gauges and histograms are read
// one by one beside it. The first write error ends the scrape's
// output and is returned: a scrape whose connection died is not reported as
// served.
func (s *Server) WriteMetrics(out io.Writer) error {
	w := &errWriter{w: out}
	tot, byOutcome := s.totals()
	var depths [laneCount]int
	depths[laneBulk], depths[lanePriority] = s.LaneDepths()

	mf := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	mf("sigserve_submitted_total", "counter", "Requests offered to Submit.")
	fmt.Fprintf(w, "sigserve_submitted_total %d\n", tot.Submitted)
	mf("sigserve_rejected_total", "counter", "Requests rejected at admission (queue full, closed, pre-expired).")
	fmt.Fprintf(w, "sigserve_rejected_total %d\n", tot.Rejected)
	mf("sigserve_completed_total", "counter", "Admitted requests resolved, by outcome.")
	for o, name := range outcomeLabels {
		fmt.Fprintf(w, "sigserve_completed_total{outcome=%q} %d\n", name, byOutcome[o])
	}
	mf("sigserve_priority_completed_total", "counter", "Completed requests that came through the priority lane.")
	fmt.Fprintf(w, "sigserve_priority_completed_total %d\n", tot.Priority)
	mf("sigserve_waves_total", "counter", "Serving waves run.")
	fmt.Fprintf(w, "sigserve_waves_total %d\n", tot.Waves)
	mf("sigserve_wave_overruns_total", "counter", "Paced waves whose wall time overran the cadence (counted, never dropped).")
	fmt.Fprintf(w, "sigserve_wave_overruns_total %d\n", tot.Overruns)
	mf("sigserve_early_waves_total", "counter", "Waves that started before they were due: fired by an arrival at an idle, non-shedding server.")
	fmt.Fprintf(w, "sigserve_early_waves_total %d\n", tot.EarlyWaves)
	mf("sigserve_joules_total", "counter", "Modeled energy spent, in joules.")
	fmt.Fprintf(w, "sigserve_joules_total %s\n", fmtFloat(tot.Joules))

	mf("sigserve_ratio", "gauge", "The admission controller's current accuracy ratio.")
	fmt.Fprintf(w, "sigserve_ratio %s\n", fmtFloat(s.Ratio()))
	mf("sigserve_load", "gauge", "Last wave's measured load signal (demand+backlog over capacity).")
	fmt.Fprintf(w, "sigserve_load %s\n", fmtFloat(s.Load()))
	mf("sigserve_target_load", "gauge", "The load cap the admission controller regulates to.")
	fmt.Fprintf(w, "sigserve_target_load %s\n", fmtFloat(s.cfg.TargetLoad))
	mf("sigserve_wave_budget", "gauge", "Modeled per-wave capacity, rebuilt from the measured period each wave.")
	fmt.Fprintf(w, "sigserve_wave_budget %s\n", fmtFloat(s.Budget()))
	mf("sigserve_wave_period_seconds", "gauge", "Measured wave wall-time EWMA (the configured period before the first wave).")
	fmt.Fprintf(w, "sigserve_wave_period_seconds %s\n", fmtFloat(s.MeasuredPeriod().Seconds()))
	mf("sigserve_pace_period_seconds", "gauge", "The pacer's current wave cadence.")
	fmt.Fprintf(w, "sigserve_pace_period_seconds %s\n", fmtFloat(s.PacePeriod().Seconds()))

	mf("sigserve_queue_depth", "gauge", "Admission queue depth, per lane.")
	for ln, name := range laneNames {
		fmt.Fprintf(w, "sigserve_queue_depth{lane=%q} %d\n", name, depths[ln])
	}
	mf("sigserve_queue_limit", "gauge", "Admission queue slots, per lane.")
	for ln, name := range laneNames {
		fmt.Fprintf(w, "sigserve_queue_limit{lane=%q} %d\n", name, s.lanes[ln].limit)
	}

	mf("sigserve_wave_latency_waves", "histogram", "Request latency from admission to resolution, in waves, per lane.")
	for ln, name := range laneNames {
		cum, count, sum := s.lanes[ln].lat.snapshot()
		for i, le := range waveLatBuckets {
			fmt.Fprintf(w, "sigserve_wave_latency_waves_bucket{lane=%q,le=\"%d\"} %d\n", name, le, cum[i])
		}
		fmt.Fprintf(w, "sigserve_wave_latency_waves_bucket{lane=%q,le=\"+Inf\"} %d\n", name, count)
		fmt.Fprintf(w, "sigserve_wave_latency_waves_sum{lane=%q} %d\n", name, sum)
		fmt.Fprintf(w, "sigserve_wave_latency_waves_count{lane=%q} %d\n", name, count)
	}
	return w.err
}

// outcomeLabels are the outcomes' metrics labels.
var outcomeLabels = [outcomeCount]string{
	OutcomeAccurate: "accurate", OutcomeDegraded: "degraded",
	OutcomeDropped: "dropped", OutcomeTimedOut: "timedout",
}

// errWriter latches the first write error; later writes are dropped.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, no exponent for common magnitudes.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
