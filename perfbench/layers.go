package main

import (
	"secpref/internal/observatory"
	"secpref/internal/sim"
	"secpref/internal/stats"
)

// rankLayer maps the engine's attribution ranks to layer names.
var rankLayer = map[string]string{
	"core": "cpu",
	"gm":   "ghostminion",
	"l1d":  "cache.l1d",
	"l2":   "cache.l2",
	"llc":  "cache.llc",
	"dram": "dram",
	"link": "sim.link",
}

// engineCounters are the exact work counts of a profiled pass. They
// repeat bit for bit for the same code, engine and inputs.
func engineCounters(p *observatory.Profile, instrs uint64) map[string]uint64 {
	c := map[string]uint64{
		"instrs":         instrs,
		"sim.advances":   p.Advances,
		"sim.visited":    p.VisitedCycles,
		"sim.skipped":    p.SkippedCycles,
		"sim.clamped":    p.ClampedAdvances,
		"sim.ticks":      0,
		"sim.integrated": 0,
		"sim.rearmed":    0,
		"sim.kept_arms":  0,
		"sim.due_ticks":  0,
		"sim.wake_ticks": 0,
		"sim.ver_ticks":  0,
		"sim.gap_skips":  0,
	}
	for _, r := range p.Ranks {
		c[rankLayer[r.Name]+".ticks"] = r.Ticks
		c["sim.ticks"] += r.Ticks
		c["sim.integrated"] += r.Integrated
		c["sim.rearmed"] += r.Rearmed
		c["sim.kept_arms"] += r.KeptArm
		c["sim.due_ticks"] += r.DueTicks
		c["sim.wake_ticks"] += r.WakeTicks
		c["sim.ver_ticks"] += r.VersionTicks
	}
	for _, g := range p.GapHist {
		c["sim.gap_skips"] += g
	}
	return c
}

// modelCounters are the simulated-model counts behind sim_ipc and the
// per-layer model ratios, summed over a pass's Results. On a shared
// LLC/DRAM (mix4) every core reports the same shared counters, so
// those are taken from the first core only.
func modelCounters(results []*sim.Result, sharedLLC bool) map[string]uint64 {
	c := map[string]uint64{}
	addCache := func(prefix string, s *stats.CacheStats) {
		var miss uint64
		for _, m := range s.Misses {
			miss += m
		}
		c[prefix+".accesses"] += s.TotalAccesses()
		c[prefix+".misses"] += miss + s.SpecMisses
		c[prefix+".rejects"] += s.RQFull + s.WQFull + s.PQFull
		c[prefix+".mshr_full_cycles"] += s.MSHRFullCycles
		c[prefix+".cycles"] += s.Cycles
		c["prefetch.issued"] += s.PrefIssued
		c["prefetch.filled"] += s.PrefFilled
		c["prefetch.useful"] += s.PrefUseful
		c["prefetch.late"] += s.PrefLate
		c["prefetch.dropped"] += s.PrefDroppedQ
	}
	for i, r := range results {
		c["instrs"] += r.Instructions
		c["cycles"] += r.Cycles
		c["cpu.branches"] += r.Core.Branches
		c["cpu.mispredicts"] += r.Core.Mispredicts
		c["cpu.lq_full_cycles"] += r.Core.LQFullCycles
		c["ghostminion.refetches"] += r.Core.CommitGMMisses
		c["ghostminion.leapfrogs"] += r.GM.Leapfrogs
		c["core.suf_drops"] += r.Core.SUFDrops
		c["core.suf_drops_wrong"] += r.Core.SUFDropWrong
		addCache("ghostminion", &r.GM)
		addCache("cache.l1d", &r.L1D)
		addCache("cache.l2", &r.L2)
		if sharedLLC && i > 0 {
			continue
		}
		addCache("cache.llc", &r.LLC)
		c["dram.reads"] += r.DRAM.Reads
		c["dram.row_hits"] += r.DRAM.RowHits
		c["dram.row_misses"] += r.DRAM.RowMisses
		c["dram.latency_sum"] += r.DRAM.LatencySum
		c["dram.latency_count"] += r.DRAM.LatCnt
		c["dram.queue_full"] += r.DRAM.QueueFullRejections
	}
	return c
}

// layerInputs gathers what the traced run measured.
type layerInputs struct {
	gen generated
	// baseSeconds is the median untraced pass time; base is one
	// untraced pass, for its runtime deltas.
	baseSeconds float64
	base        *passResult
	// engine holds the traced pass's exact engine counters; model the
	// model counters; wall the sampled busy time per tick (nil where
	// the engine does not sample it).
	engine map[string]uint64
	model  map[string]uint64
	wall   *observatory.Profile
	// extra holds workload-specific and overhead metrics already
	// computed (multicore.*, experiments.*, *.overhead_share).
	extra map[string]float64
}

// perLayer lists every per-layer metric: name, unit, and whether
// higher is better. BENCHMARK.json lists the same names.
var perLayer = []metricDef{
	{"workload.gen_s", "s", false},
	{"workload.gen_ns_per_instr", "ns", false},
	{"sim.ticks_per_kinstr", "1/kinstr", false},
	{"sim.visited_cycles_per_kinstr", "1/kinstr", false},
	{"sim.advances_per_kinstr", "1/kinstr", false},
	{"sim.skip_efficiency", "share", true},
	{"sim.host_ns_per_visited_cycle", "ns", false},
	{"cpu.ticks_per_kinstr", "1/kinstr", false},
	{"cpu.ns_per_tick", "ns", false},
	{"cpu.lq_full_cycles_per_kinstr", "1/kinstr", false},
	{"cpu.mispredict_rate", "share", false},
	{"ghostminion.ticks_per_kinstr", "1/kinstr", false},
	{"ghostminion.ns_per_tick", "ns", false},
	{"ghostminion.hit_ratio", "share", true},
	{"ghostminion.leapfrogs_per_kinstr", "1/kinstr", false},
	{"ghostminion.refetch_per_kinstr", "1/kinstr", false},
	{"ghostminion.mshr_full_share", "share", false},
	{"core.suf_drops_per_kinstr", "1/kinstr", true},
	{"core.suf_accuracy", "share", true},
	{"cache.l1d.ticks_per_kinstr", "1/kinstr", false},
	{"cache.l1d.ns_per_tick", "ns", false},
	{"cache.l1d.apki", "1/kinstr", false},
	{"cache.l1d.miss_ratio", "share", false},
	{"cache.l1d.rejects_per_kinstr", "1/kinstr", false},
	{"cache.l1d.mshr_full_share", "share", false},
	{"cache.l2.ticks_per_kinstr", "1/kinstr", false},
	{"cache.l2.ns_per_tick", "ns", false},
	{"cache.l2.apki", "1/kinstr", false},
	{"cache.l2.miss_ratio", "share", false},
	{"cache.l2.rejects_per_kinstr", "1/kinstr", false},
	{"cache.l2.mshr_full_share", "share", false},
	{"cache.llc.ticks_per_kinstr", "1/kinstr", false},
	{"cache.llc.ns_per_tick", "ns", false},
	{"cache.llc.apki", "1/kinstr", false},
	{"cache.llc.miss_ratio", "share", false},
	{"cache.llc.rejects_per_kinstr", "1/kinstr", false},
	{"cache.llc.mshr_full_share", "share", false},
	{"prefetch.issued_per_kinstr", "1/kinstr", true},
	{"prefetch.accuracy", "share", true},
	{"prefetch.late_share", "share", false},
	{"prefetch.dropped_share", "share", false},
	{"dram.ticks_per_kinstr", "1/kinstr", false},
	{"dram.ns_per_tick", "ns", false},
	{"dram.reads_per_kinstr", "1/kinstr", false},
	{"dram.row_hit_ratio", "share", true},
	{"dram.read_latency_cycles", "cycles", false},
	{"dram.queue_full_per_kinstr", "1/kinstr", false},
	{"sim.link.ticks_per_kinstr", "1/kinstr", false},
	{"multicore.thread_speedup", "x", true},
	{"multicore.speedup_vs_lockstep", "x", true},
	{"multicore.cpu_util", "share", true},
	{"multicore.overrun_share", "share", false},
	{"experiments.runs_per_pass", "count", false},
	{"experiments.fig_s.fig1", "s", false},
	{"experiments.fig_s.fig12a", "s", false},
	{"experiments.fig_s.fig12b", "s", false},
	{"experiments.cpu_util", "share", true},
	{"runtime.allocs_per_kinstr", "1/kinstr", false},
	{"runtime.alloc_mb_per_pass", "MB", false},
	{"runtime.gc_cpu_share", "share", false},
	{"probe.overhead_share", "share", false},
	{"observatory.overhead_share", "share", false},
	{"interference.overhead_share", "share", false},
	{"bench.trace_overhead_share", "share", false},
}

// layerMetrics derives every per-layer metric. A metric a workload
// cannot measure reads 0; README.md lists which.
func layerMetrics(in layerInputs) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	e, m := in.engine, in.model
	kin := e["instrs"]
	out["workload.gen_s"] = in.gen.seconds
	out["workload.gen_ns_per_instr"] = ratio(in.gen.seconds*1e9, float64(in.gen.instrs))
	out["sim.ticks_per_kinstr"] = perKinstr(e["sim.ticks"], kin)
	out["sim.visited_cycles_per_kinstr"] = perKinstr(e["sim.visited"], kin)
	out["sim.advances_per_kinstr"] = perKinstr(e["sim.advances"], kin)
	out["sim.skip_efficiency"] = ratio(float64(e["sim.skipped"]), float64(e["sim.skipped"]+e["sim.visited"]))
	out["sim.host_ns_per_visited_cycle"] = ratio(in.baseSeconds*1e9, float64(e["sim.visited"]))
	for _, layer := range rankLayer {
		out[layer+".ticks_per_kinstr"] = perKinstr(e[layer+".ticks"], kin)
	}
	if in.wall != nil {
		for _, row := range in.wall.Table() {
			if layer := rankLayer[row.Rank]; layer != "sim.link" {
				out[layer+".ns_per_tick"] = row.WallNsPerTick
			}
		}
	}

	mi := m["instrs"]
	out["cpu.lq_full_cycles_per_kinstr"] = perKinstr(m["cpu.lq_full_cycles"], mi)
	out["cpu.mispredict_rate"] = ratio(float64(m["cpu.mispredicts"]), float64(m["cpu.branches"]))
	out["ghostminion.hit_ratio"] = 1 - ratio(float64(m["ghostminion.misses"]), float64(m["ghostminion.accesses"]))
	out["ghostminion.leapfrogs_per_kinstr"] = perKinstr(m["ghostminion.leapfrogs"], mi)
	out["ghostminion.refetch_per_kinstr"] = perKinstr(m["ghostminion.refetches"], mi)
	out["ghostminion.mshr_full_share"] = ratio(float64(m["ghostminion.mshr_full_cycles"]), float64(m["ghostminion.cycles"]))
	out["core.suf_drops_per_kinstr"] = perKinstr(m["core.suf_drops"], mi)
	out["core.suf_accuracy"] = 1 - ratio(float64(m["core.suf_drops_wrong"]), float64(m["core.suf_drops"]))
	for _, lvl := range []string{"cache.l1d", "cache.l2", "cache.llc"} {
		out[lvl+".apki"] = perKinstr(m[lvl+".accesses"], mi)
		out[lvl+".miss_ratio"] = ratio(float64(m[lvl+".misses"]), float64(m[lvl+".accesses"]))
		out[lvl+".rejects_per_kinstr"] = perKinstr(m[lvl+".rejects"], mi)
		out[lvl+".mshr_full_share"] = ratio(float64(m[lvl+".mshr_full_cycles"]), float64(m[lvl+".cycles"]))
	}
	out["prefetch.issued_per_kinstr"] = perKinstr(m["prefetch.issued"], mi)
	out["prefetch.accuracy"] = ratio(float64(m["prefetch.useful"]), float64(m["prefetch.filled"]))
	out["prefetch.late_share"] = ratio(float64(m["prefetch.late"]), float64(m["prefetch.issued"]))
	out["prefetch.dropped_share"] = ratio(float64(m["prefetch.dropped"]), float64(m["prefetch.issued"]+m["prefetch.dropped"]))
	out["dram.reads_per_kinstr"] = perKinstr(m["dram.reads"], mi)
	out["dram.row_hit_ratio"] = ratio(float64(m["dram.row_hits"]), float64(m["dram.row_hits"]+m["dram.row_misses"]))
	out["dram.read_latency_cycles"] = ratio(float64(m["dram.latency_sum"]), float64(m["dram.latency_count"]))
	out["dram.queue_full_per_kinstr"] = perKinstr(m["dram.queue_full"], mi)

	if b := in.base; b != nil {
		out["experiments.runs_per_pass"] = float64(b.sims)
		out["runtime.allocs_per_kinstr"] = perKinstr(b.rt.mallocs, b.instrs)
		out["runtime.alloc_mb_per_pass"] = float64(b.rt.allocBytes) / 1e6
		out["runtime.gc_cpu_share"] = ratio(b.rt.gcCPU, b.rt.cpu)
	}
	for k, v := range in.extra {
		out[k] = v
	}
	return out
}
