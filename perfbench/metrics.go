package main

import (
	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the host-time metrics a run reports with tracing off. Every
// workload reports every one of them, each over its own unit of work (see
// README.md): a job is one detailed simulation (engine-detailed), one
// kernel's compile->lint->ref->fastsim chain (functional-suite) or one
// served request (serve-fabric).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"insts_per_s", "insts/s", "higher"},
	{"allocs_per_inst", "allocs/inst", "lower"},
	{"rss_mb", "MB", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
}

// perLayer are the metrics of the traced run. A layer a workload does not
// call reports 0. Modelled figures (cycles, slots, squashes, speedup,
// sampling error) are counts of the simulated machine, never host time;
// model.* holds the two the ROADMAP reports as results.
func perLayer() []metricDef {
	defs := []metricDef{
		{"compiler.compile_ms", "ms", "lower"},
		{"compiler.alloc_mb", "MB", "lower"},
		{"lint.run_ms", "ms", "lower"},
		{"mem.load_program_ms", "ms", "lower"},
		{"mem.l1d_miss_ratio", "ratio", "lower"},
		{"mem.l2_miss_ratio", "ratio", "lower"},
		{"ref.run_ms", "ms", "lower"},
		{"ref.insts_per_s", "insts/s", "higher"},
		{"fastsim.run_ms", "ms", "lower"},
		{"fastsim.insts_per_s", "insts/s", "higher"},
		{"fastsim.checkpoints", "count", "lower"},
		{"cpu.new_machine_ms", "ms", "lower"},
		{"cpu.run_ms", "ms", "lower"},
		{"cpu.insts_per_s", "insts/s", "higher"},
		{"cpu.alloc_bytes_per_inst", "B/inst", "lower"},
		{"cpu.allocs_per_inst", "allocs/inst", "lower"},
		{"cpu.gc_cpu_fraction", "ratio", "lower"},
		{"cpu.cycles", "cycles", "lower"},
		{"cpu.ipc", "insts/cycle", "higher"},
	}
	for i, name := range cpu.SlotClassNames() {
		better := "lower" // a stall class
		if cpu.SlotClass(i) == cpu.SlotRetiredArch || cpu.SlotClass(i) == cpu.SlotRetiredSpec {
			better = "higher"
		}
		defs = append(defs, metricDef{"cpu.commit_slots." + name, "slots", better})
	}
	defs = append(defs,
		metricDef{"core.spawns", "count", "higher"},
		metricDef{"core.retires", "count", "higher"},
		metricDef{"core.spawn_success_ratio", "ratio", "higher"},
	)
	for c := 0; c < core.NumSquashCauses; c++ {
		defs = append(defs, metricDef{"core.squashes." + core.SquashCause(c).String(), "count", "lower"})
	}
	defs = append(defs, []metricDef{
		{"core.packed_spawns", "count", "higher"},
		{"core.spec_wasted_insts", "insts", "lower"},
		{"bpred.mispredict_ratio", "ratio", "lower"},
		{"sim.harness.utilization", "ratio", "higher"},
		{"sim.cache.hits", "count", "higher"},
		{"sim.cache.misses", "count", "lower"},
		{"sim.cache.flight_joins", "count", "higher"},
		{"sim.cache.hit_ratio", "ratio", "higher"},
		{"sim.sampled.run_ms", "ms", "lower"},
		{"sim.sampled.windows", "count", "lower"},
		{"serve.queued_ms", "ms", "lower"},
		{"serve.run_ms", "ms", "lower"},
		{"serve.overhead_ms", "ms", "lower"},
		{"serve.rejected", "count", "lower"},
		{"fabric.hop_ms", "ms", "lower"},
		{"fabric.hedges", "count", "lower"},
		{"fabric.steals", "count", "lower"},
		{"fabric.retries", "count", "lower"},
		{"fabric.requeues", "count", "lower"},
		{"fabric.affinity_ratio", "ratio", "higher"},
		{"model.lf_speedup_geomean", "x", "higher"},
		{"model.sampled_err_pct", "%", "lower"},
		{"run.failed_ratio", "ratio", "lower"},
		{"trace.untraced_insts_per_s", "insts/s", "higher"},
		{"trace.traced_insts_per_s", "insts/s", "higher"},
		{"trace.overhead_pct", "%", "lower"},
		{"roadmap.mcf.detailed_insts_per_s", "insts/s", "higher"},
		{"roadmap.mcf.allocs_per_inst", "allocs/inst", "lower"},
		{"roadmap.mcf.new_machine_share", "ratio", "lower"},
		{"roadmap.mcf.load_program_share", "ratio", "lower"},
	}...)
	return defs
}
