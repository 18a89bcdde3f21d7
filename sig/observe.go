package sig

import "time"

// WaveStats is the telemetry of one completed wave (phase) of a group: the
// task accounting, requested/provided accuracy and modeled energy accrued
// between two consecutive taskwait boundaries. It is what the adaptive
// layer (sig/adapt) consumes to retune a group's ratio wave by wave.
//
// All fields are computed by snapshot-diffing the group's existing atomic
// counters and the workers' busy clocks at the wave boundary, so phased
// telemetry adds nothing to the per-task hot path.
type WaveStats struct {
	// Wave is the index of the wave that just completed (the value tasks
	// of that wave carried in their DecisionRecord).
	Wave int
	// Submitted counts tasks submitted during the wave; Accurate,
	// Approximate and Dropped count how they were decided. For a group
	// drained at a taskwait, Submitted = Accurate+Approximate+Dropped.
	Submitted   int
	Accurate    int
	Approximate int
	Dropped     int
	// RequestedRatio is the group's target accurate ratio at the wave
	// boundary; ProvidedRatio is the accurate fraction the wave actually
	// delivered (the requested ratio when the wave was empty).
	RequestedRatio float64
	ProvidedRatio  float64
	// Busy is the modeled busy time accrued across all workers during the
	// wave and Joules its energy at DefaultActiveWatts. With declared
	// task costs (WithCost) both are deterministic. Busy time is
	// runtime-wide: when several groups run tasks between this group's
	// phase boundaries, their work is attributed to this wave too —
	// streaming workloads drive one group at a time.
	Busy   time.Duration
	Joules float64
}

// Decided returns the number of tasks decided in the wave.
func (w WaveStats) Decided() int { return w.Accurate + w.Approximate + w.Dropped }

// Merge folds the integer account of ws — task counts and busy nanoseconds: a
// group's diff against its last boundary, or one shard's cut of a fleet's wave
// — into w and derives Joules and ProvidedRatio afresh from the sums (never by
// adding float joules), so a merged wave is bit-identical to a single
// runtime's that ran the same bodies. Wave and RequestedRatio stay w's.
func (w *WaveStats) Merge(ws WaveStats) {
	w.Submitted += ws.Submitted
	w.Accurate += ws.Accurate
	w.Approximate += ws.Approximate
	w.Dropped += ws.Dropped
	w.Busy += ws.Busy
	w.Joules = joules(w.Busy)
	w.ProvidedRatio = provided(int64(w.Accurate), int64(w.Decided()), w.RequestedRatio)
}

// SetRatio retargets the group's requested accurate ratio (clamped to
// [0,1]). It is the adaptive controller's knob: the new ratio applies to
// decisions made after the call — for buffering policies, to the next
// window or flush.
func (g *Group) SetRatio(r float64) { g.setRatio(r) }

// WaitPhase is Wait with telemetry: it drains the group like Wait and
// returns the completed wave's WaveStats instead of the cumulative provided
// ratio. Streaming workloads call it once per wave and hand the result to
// whoever regulates the group (adapt.Controller.Observe) before submitting
// the next one: every task of the wave has completed by then, so a quality
// probe may read the outputs it produced. Nobody is called back.
func (rt *Runtime) WaitPhase(g *Group) WaveStats {
	if g == nil {
		g = rt.defaultGroup()
	}
	rt.drain(g)
	return rt.endWave(g)
}

// endWave closes the group's current wave: it diffs the task counters and
// the busy clocks against the previous boundary's snapshot, advances the
// wave epoch and returns the wave's telemetry. phaseMu only serializes
// concurrent taskwaits on the same group — never the submit path.
func (rt *Runtime) endWave(g *Group) WaveStats {
	g.phaseMu.Lock()
	defer g.phaseMu.Unlock()
	sub, acc, app, drop := g.Counts()
	busy := rt.busyNS()
	ws := WaveStats{Wave: int(g.wave.Load()), RequestedRatio: g.Ratio()}
	ws.Merge(WaveStats{
		Submitted:   int(sub - g.waveBase.submitted),
		Accurate:    int(acc - g.waveBase.accurate),
		Approximate: int(app - g.waveBase.approximate),
		Dropped:     int(drop - g.waveBase.dropped),
		Busy:        time.Duration(busy - g.waveBase.busyNS),
	})
	g.waveBase = waveSnapshot{submitted: sub, accurate: acc, approximate: app, dropped: drop, busyNS: busy}
	g.wave.Add(1)
	return ws
}

// waveSnapshot is the counter state at the last wave boundary.
type waveSnapshot struct {
	submitted, accurate, approximate, dropped int64
	busyNS                                    int64
}
