package main

import (
	"context"
	"time"

	"dpmr/internal/harness"
)

// perLayer lists every per-layer metric of the traced run, with its
// unit. Every traced run prints all of them.
var perLayer = []struct{ name, unit string }{
	{"faultinject.apply_us", "us"},
	{"dpmr.transform_us", "us"},
	{"interp.compile_us", "us"},
	{"harness.modules_built", "count"},
	{"interp.run_us_per_trial", "us"},
	{"interp.host_ns_per_step", "ns"},
	{"interp.steps_per_trial", "count"},
	{"interp.cycles_per_trial", "count"},
	{"mem.memops_per_trial", "count"},
	{"mem.load_hit_ns", "ns"},
	{"mem.load_miss_ns", "ns"},
	{"mem.store_ns", "ns"},
	{"mem.pool_reuse_us", "us"},
	{"mem.newspace_us", "us"},
	{"sched.group_ms", "ms"},
	{"sched.switches_per_group", "count"},
	{"sched.ns_per_switch", "ns"},
	{"consist.check_us_per_group", "us"},
	{"consist.events_per_group", "count"},
	{"consist.ns_per_event", "ns"},
	{"harness.plan_ms", "ms"},
	{"harness.golden_ms", "ms"},
	{"harness.partial_decode_us", "us"},
	{"harness.merge_us", "us"},
	{"harness.render_us", "us"},
	{"harness.partial_kb", "KiB"},
	{"journal.append_us", "us"},
	{"journal.appends_per_submit", "count"},
	{"coord.shards_per_submit", "count"},
	{"coord.shard_exec_ms", "ms"},
	{"coordnet.first_event_ms", "ms"},
	{"coordnet.tail_ms", "ms"},
	{"coordnet.result_kb", "KiB"},
	{"go.gc_cpu_share", "ratio"},
	{"go.heap_peak_mb", "MiB"},
	{"trace.accounted_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

type traceFunc func(ctx context.Context, c *config) (*report, error)

// traceWith runs a workload's traced run, then probes: traced runs of
// other traffic that fill in the layers the workload does not exercise,
// so every traced run reports every per-layer metric as a measurement.
// A probe's figures only fill metrics the workload left unset; its
// checked operations count like the workload's. The mem micro-loops,
// which no replay can isolate, run last.
func traceWith(ctx context.Context, c *config, main traceFunc, probes ...traceFunc) (*report, error) {
	rep, err := main(ctx, c)
	if err != nil {
		return nil, err
	}
	for _, probe := range probes {
		pr, err := probe(ctx, c)
		if err != nil {
			return nil, err
		}
		rep.attempted += pr.attempted
		rep.failed += pr.failed
		for _, n := range pr.names {
			if _, ok := rep.metrics[n]; !ok {
				rep.set(n, pr.metrics[n].Unit, pr.metrics[n].Value)
			}
		}
	}
	geometry, err := harness.ExperimentSpec(paperExperiments[0].id).Normalized()
	if err != nil {
		return nil, err
	}
	if err := memLayers(rep, geometry.Mem); err != nil {
		return nil, err
	}
	// A layer metric can still be unset when its denominator was 0 (no
	// switches, no trace events); print it as 0 so the list is complete.
	for _, l := range perLayer {
		if _, ok := rep.metrics[l.name]; !ok {
			rep.set(l.name, l.unit, 0)
		}
	}
	return rep, nil
}

// probeSweep traces the first three rounds of the seed's sweep order:
// three submissions per (workload, fault kind).
func probeSweep(ctx context.Context, c *config) (*report, error) {
	return traceSweep(ctx, c, sweepSpecs(c.seed)[:24])
}

// buildLayers sets the module-build metrics from the replay's spans.
func buildLayers(rep *report, sum map[string]*layerTotals, built int64) {
	rep.set("faultinject.apply_us", "us", meanOf(sum, "faultinject.Apply", time.Microsecond))
	rep.set("dpmr.transform_us", "us", meanOf(sum, "dpmr.Transform", time.Microsecond))
	rep.set("interp.compile_us", "us", meanOf(sum, "interp.Compile", time.Microsecond))
	rep.set("harness.modules_built", "count", float64(built))
}

// runLayers sets the interp.Run timing metrics from the replay's spans.
func runLayers(rep *report, sum map[string]*layerTotals, tot totals) {
	run := sum["interp.Run"]
	if run == nil || tot.Trials == 0 || tot.Steps == 0 {
		return
	}
	rep.set("interp.run_us_per_trial", "us", float64(run.total)/float64(time.Microsecond)/float64(tot.Trials))
	rep.set("interp.host_ns_per_step", "ns", float64(run.total)/float64(tot.Steps))
}

// workLayers sets the exact simulated work per trial.
func workLayers(rep *report, tot totals) {
	if tot.Trials == 0 {
		return
	}
	n := float64(tot.Trials)
	rep.set("interp.steps_per_trial", "count", float64(tot.Steps)/n)
	rep.set("interp.cycles_per_trial", "count", float64(tot.Cycles)/n)
	rep.set("mem.memops_per_trial", "count", float64(tot.Memops)/n)
}

// setupLayers sets the plan and golden timings.
func setupLayers(rep *report, sum map[string]*layerTotals) {
	rep.set("harness.plan_ms", "ms", meanOf(sum, "harness.PlanTrials", time.Millisecond))
	rep.set("harness.golden_ms", "ms", meanOf(sum, "harness.Golden", time.Millisecond))
}

// runtimeLayers sets the Go runtime and tracing bookkeeping metrics.
// The overhead compares the traced phase's wall time with the same
// phase run untraced.
func runtimeLayers(rep *report, gcShare, heapPeakMB, accounted float64, traced, untraced window) {
	rep.set("go.gc_cpu_share", "ratio", gcShare)
	rep.set("go.heap_peak_mb", "MiB", heapPeakMB)
	rep.set("trace.accounted_share", "ratio", accounted)
	if untraced.wall > 0 {
		rep.set("trace.overhead_pct", "%", (traced.wall.Seconds()/untraced.wall.Seconds()-1)*100)
	}
}
