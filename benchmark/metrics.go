package main

import "repro/internal/harness"

// perLayer lists the metrics of single layers, measured by the traced run.
// The prefix names the layer (module): sigserve = cmd/sigserve, serve =
// sig/serve, adapt = sig/adapt, shard = sig/shard, sig = sig, harness and
// bench = internal/harness and internal/bench/*, loadgen and trace = the
// benchmark itself.
func perLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name, unit, true} }
	higher := func(name, unit string) metricDef { return metricDef{name, unit, false} }
	defs := []metricDef{
		lower("sigserve.rtt_p50_s", "s"),
		lower("sigserve.rtt_p99_s", "s"),
		lower("sigserve.front_p50_s", "s"),
		lower("sigserve.cpu_s_per_op", "s"),
		lower("sigserve.barehttp_ratio", "x"),
		lower("sigserve.non200", "count"),

		lower("serve.submit_ns", "ns"),
		lower("serve.ticket_wait_p50_s", "s"),
		lower("serve.ticket_wait_p99_s", "s"),
		lower("serve.wave_latency_p50", "waves"),
		lower("serve.pace_period_s", "s"),
		lower("serve.measured_period_s", "s"),
		higher("serve.waves_per_s", "1/s"),
		lower("serve.overrun_share", "share"),
		higher("serve.admitted_per_wave", "count"),
		lower("serve.depth_p50", "count"),
		lower("serve.rejected_share", "share"),
		lower("serve.timedout_share", "share"),
		lower("serve.cpu_s_per_op", "s"),
		lower("serve.runwave_ns_per_req", "ns"),

		higher("adapt.steady_ratio", "share"),
		lower("adapt.ratio_iqr", "share"),
		lower("adapt.load_p50", "x"),
		lower("adapt.observe_ns", "ns"),

		lower("shard.vs_sig_ratio", "x"),
		lower("shard.submit_batch_ns_per_task", "ns"),
		lower("shard.wait_phase_p50_s", "s"),
		lower("shard.placement_skew", "share"),

		lower("sig.submit_ns_per_task", "ns"),
		lower("sig.submit_batch_ns_per_task", "ns"),
		lower("sig.wait_phase_p50_s", "s"),
		lower("sig.allocs_per_task", "count"),
		lower("sig.pool_ratio", "x"),
		higher("sig.tasks_per_s", "1/s"),

		lower("harness.execute_fixed_s", "s"),
		higher("harness.passes_per_s", "1/s"),

		lower("loadgen.late_p99_s", "s"),
		lower("loadgen.late_max_s", "s"),
		lower("loadgen.cpu_share", "share"),
		lower("loadgen.stalls", "count"),
		higher("trace.spans", "count"),
	}
	for _, v := range [][2]string{{"sig", "batch_gtbmax"}, {"sig", "single_gtb"}, {"sig", "single_lqh"}, {"shard", "shard1_batch"}, {"shard", "shard2_batch"}} {
		defs = append(defs,
			lower(v[0]+".overhead."+v[1], "x"),
			lower(v[0]+".wave_p50_s."+v[1], "s"),
			lower(v[0]+".wave_p99_s."+v[1], "s"))
	}
	for _, spec := range harness.Specs() {
		defs = append(defs,
			lower("bench."+spec.Name+".seq_s", "s"),
			higher("bench."+spec.Name+".speedup", "x"),
			lower("bench."+spec.Name+".overhead", "x"),
			lower("bench."+spec.Name+".quality_gtbmax", "quality"))
	}
	for _, w := range workloads() {
		defs = append(defs, lower("trace.overhead_share."+w.name, "share"))
	}
	for _, l := range spanLayers {
		defs = append(defs, lower("trace.self_share."+l, "share"))
	}
	return defs
}
