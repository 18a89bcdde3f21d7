package sig

// Stats is a snapshot of task accounting across all groups of a runtime.
// The counters are int64 — like the atomics backing them — so long-running
// serving workloads cannot overflow them on 32-bit platforms.
type Stats struct {
	Submitted   int64
	Accurate    int64
	Approximate int64
	Dropped     int64
	Groups      []GroupStats
}

// GroupStats is the per-group accounting snapshot.
type GroupStats struct {
	Name      string
	Submitted int64
	// Accurate, Approximate and Dropped count decided-and-completed
	// tasks; Dropped counts tasks skipped without running any body —
	// both policy drops and approximate decisions on tasks that carry
	// no approximate body (the model's task-dropping degradation).
	Accurate    int64
	Approximate int64
	Dropped     int64
	// RequestedRatio is the group's target accurate fraction;
	// ProvidedRatio is the fraction actually delivered.
	RequestedRatio float64
	ProvidedRatio  float64
	// Decisions is the ordered per-task decision log, populated only when
	// Config.RecordDecisions is set.
	Decisions []DecisionRecord
}

// provided is the ratio rule of every account: the accurate fraction of the
// decided tasks. An account that decided nothing reports its requested ratio:
// an empty run trivially satisfies its target, and callers averaging Wait
// results must never see a 0/0 artifact.
func provided(accurate, decided int64, requested float64) float64 {
	if decided == 0 {
		return requested
	}
	return float64(accurate) / float64(decided)
}

// Merge folds another snapshot of the same logical group — one shard's, or a
// retired incarnation's — into gs: counters add, o's decision log follows
// gs's, and ProvidedRatio is derived afresh from the summed counters. Name
// and RequestedRatio stay gs's.
func (gs *GroupStats) Merge(o GroupStats) {
	gs.Submitted += o.Submitted
	gs.Accurate += o.Accurate
	gs.Approximate += o.Approximate
	gs.Dropped += o.Dropped
	gs.Decisions = append(gs.Decisions, o.Decisions...)
	gs.ProvidedRatio = provided(gs.Accurate, gs.Accurate+gs.Approximate+gs.Dropped, gs.RequestedRatio)
}

// Counts returns the group's task counters — submitted, accurate,
// approximate, dropped — without the decision-log copy Stats makes: the
// O(1) read a per-wave merge loop (sig/shard) wants.
func (g *Group) Counts() (submitted, accurate, approximate, dropped int64) {
	return g.submitted.Load(), g.accurate.Load(), g.approximate.Load(), g.dropped.Load()
}

// Stats returns the group's own accounting snapshot, without taking the
// runtime-wide lock Runtime.Stats needs. Sharded front ends (sig/shard) use
// it to merge one logical group's counters across runtimes.
func (g *Group) Stats() GroupStats {
	gs := GroupStats{
		Name:           g.name,
		Submitted:      g.submitted.Load(),
		Accurate:       g.accurate.Load(),
		Approximate:    g.approximate.Load(),
		Dropped:        g.dropped.Load(),
		RequestedRatio: g.Ratio(),
		ProvidedRatio:  g.providedRatio(),
	}
	if g.rt.cfg.RecordDecisions {
		g.logMu.Lock()
		gs.Decisions = append([]DecisionRecord(nil), g.log...)
		g.logMu.Unlock()
	}
	return gs
}

// DecisionRecord is one entry of a group's decision log.
type DecisionRecord struct {
	Significance float64
	Accurate     bool
	// Wave counts the group's taskwait epochs: iterative benchmarks
	// submit one wave per Wait cycle, and significance values are only
	// comparable within a wave.
	Wave int
}
