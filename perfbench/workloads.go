package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"secpref/internal/experiments"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// config is the recorded shape of one workload: what it simulates and
// how much.
type config struct {
	System  string   `json:"system"`
	Traces  []string `json:"traces"`
	Warmup  int      `json:"warmup_instrs"`
	Instrs  int      `json:"measured_instrs"`
	Figures []string `json:"figures,omitempty"`
	// Threads is the program's own fan-out: the campaign's Parallelism
	// or mix4's Workers. Both are capped at nproc.
	Threads int `json:"threads,omitempty"`
}

// passConfig selects what one pass attaches. The zero value is a plain
// untraced pass, the kind end-to-end metrics are taken from.
type passConfig struct {
	spans *spanLog
	// profile attaches observatory profiles; wallEvery > 0 also times
	// every wallEvery-th tick of each rank (single-core runs only).
	profile   bool
	wallEvery uint64
	// observed attaches the campaign-style probe complement (lifecycle
	// tracer and interval samplers); interference attaches mix4's
	// cross-core interference observatory.
	observed     bool
	interference bool
	// workers overrides mix4's Workers; reference runs the lockstep
	// reference engine instead of the event/parallel one.
	workers   int
	reference bool
}

// output is one checked output of a pass: a simulation's Result or a
// campaign figure's table cells.
type output struct {
	name   string
	digest uint64
	err    error
}

// passResult is what one pass produced and what it cost.
type passResult struct {
	// seconds is the pass's wall time; cpuSeconds the process CPU
	// time (user+system, every thread) it used; calibSeconds the CPU
	// time of the calibration run just before it, when there was one.
	seconds, cpuSeconds, calibSeconds float64
	outputs                           []output
	// Measured-phase instructions and cycles summed over the pass's
	// simulations, and the per-simulation (per-core on mix4) IPCs.
	instrs, cycles uint64
	ipcs           []float64
	sims           uint64 // simulations the pass ran
	results        []*sim.Result
	profile        *observatory.Profile // merged, when profiled
	figSeconds     map[string]float64
	rt             runtimeDelta
}

// ipc is the pass's simulated IPC: the geomean over simulations, or
// instructions over cycles where the program reports only totals.
func (p *passResult) ipc() float64 {
	if len(p.ipcs) > 0 {
		return geomean(p.ipcs)
	}
	return ratio(float64(p.instrs), float64(p.cycles))
}

func (p *passResult) add(name string, digest uint64, err error) {
	p.outputs = append(p.outputs, output{name: name, digest: digest, err: err})
}

// bench is one workload.
type bench interface {
	config() config
	// setup generates the inputs for seed.
	setup(seed int64, spans *spanLog) (generated, error)
	// pass runs the workload once, closed-loop: each simulation starts
	// after the previous one returns.
	pass(pc passConfig) *passResult
	// crossEngine runs one input on the default and the reference
	// engine and reports whether the outputs agree; it is the check for
	// seeds with no pinned digest.
	crossEngine() (string, error)
}

// safe runs fn, turning a panic into an error.
func safe(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// hashJSON digests v's JSON encoding; a value that cannot be encoded
// digests to 0, which no pinned digest matches.
func hashJSON(v any) uint64 {
	raw, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return observatory.HashBytes(raw)
}

// secureSystem is the paper's secure system: GhostMinion with SUF and
// the timely-secure Berti prefetcher (TSB).
func secureSystem(warmup, instrs int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = sim.ModeTimelySecure
	cfg.WarmupInstrs = warmup
	cfg.MaxInstrs = instrs
	return cfg
}

const secureSystemName = "GhostMinion + SUF + TSB (Berti, timely-secure)"

// generated is what set-up produced and what generation cost: the
// process CPU time of the workload.Get calls, which is setup_s.
type generated struct {
	instrs  uint64
	seconds float64
}

// getTraces generates the named traces in order, one span each. A
// collection after each one bounds the heap to the live traces plus one
// generation's garbage; without it, peak RSS depends on where the
// concurrent collector happens to start, which moved campaign's peak
// by 8% from one run to the next. The collections are not timed.
func getTraces(names []string, p workload.Params, spans *spanLog) ([]*trace.Trace, generated, error) {
	out := make([]*trace.Trace, len(names))
	var g generated
	for i, name := range names {
		h := spans.begin("workload.Get " + name)
		c0 := processCPU()
		tr, err := workload.Get(name, p)
		g.seconds += processCPU() - c0
		spans.end(h)
		runtime.GC()
		if err != nil {
			return nil, g, err
		}
		out[i] = tr
		g.instrs += uint64(len(tr.Instrs))
	}
	return out, g, nil
}

// singleProbes builds one single-core run's probes for pc; prof is
// non-nil when pc asks for a profile.
func singleProbes(pc passConfig, instrs int) (sim.Probes, *observatory.Profile) {
	p := sim.Probes{ReferenceEngine: pc.reference}
	var prof *observatory.Profile
	if pc.profile {
		prof = &observatory.Profile{WallSampleEvery: pc.wallEvery}
		p.Profile = prof
	}
	if pc.observed {
		// The experiment runner's -timeseries sizing.
		p.Observer = probe.NewTracer(32, 1<<13)
		p.Window = probe.NewIntervalSampler(instrs/int(sim.DefaultWindowInstrs) + 2)
	}
	return p, prof
}

// runSingle runs one single-core simulation under pc and folds it into
// pr. The digest covers the whole serialized Result.
func runSingle(pr *passResult, pc passConfig, cfg sim.Config, tr *trace.Trace) *sim.Result {
	probes, prof := singleProbes(pc, cfg.MaxInstrs)
	h := pc.spans.begin("sim.RunProbed " + tr.Name)
	var res *sim.Result
	err := safe(func() (err error) {
		res, err = sim.RunProbed(cfg, trace.NewSource(tr), probes)
		return err
	})
	pc.spans.end(h)
	pr.sims++
	if err != nil {
		pr.add(tr.Name, 0, err)
		return nil
	}
	pr.add(tr.Name, hashJSON(res), nil)
	pr.instrs += res.Instructions
	pr.cycles += res.Cycles
	pr.ipcs = append(pr.ipcs, res.IPC)
	pr.results = append(pr.results, res)
	if prof != nil {
		if pr.profile == nil {
			pr.profile = &observatory.Profile{}
		}
		pr.profile.Merge(prof)
	}
	return res
}

// crossSingle runs tr on the event engine and the lockstep reference
// and compares the serialized Results.
func crossSingle(cfg sim.Config, tr *trace.Trace) (string, error) {
	var a, b passResult
	runSingle(&a, passConfig{}, cfg, tr)
	runSingle(&b, passConfig{reference: true}, cfg, tr)
	name := tr.Name + " event==reference"
	for _, o := range []output{a.outputs[0], b.outputs[0]} {
		if o.err != nil {
			return name, o.err
		}
	}
	if a.outputs[0].digest != b.outputs[0].digest {
		return name, fmt.Errorf("event engine digest %016x != reference %016x", a.outputs[0].digest, b.outputs[0].digest)
	}
	return name, nil
}

// specBench is the spec-secure workload: the secure system on
// cache-resident, compute-bound SPEC-like traces, one run at a time.
type specBench struct {
	cfg    config
	traces []*trace.Trace
}

func newSpec(warmup, instrs int) *specBench {
	return &specBench{cfg: config{
		System: secureSystemName,
		Traces: []string{"602.gcc-1850B", "654.roms-1007B", "619.lbm-2676B", "603.bwa-2931B"},
		Warmup: warmup, Instrs: instrs,
	}}
}

func (b *specBench) config() config { return b.cfg }

func (b *specBench) setup(seed int64, spans *spanLog) (generated, error) {
	var g generated
	var err error
	b.traces, g, err = getTraces(b.cfg.Traces, workload.Params{Instrs: b.cfg.Warmup + b.cfg.Instrs, Seed: seed}, spans)
	return g, err
}

func (b *specBench) pass(pc passConfig) *passResult {
	pr := &passResult{}
	cfg := secureSystem(b.cfg.Warmup, b.cfg.Instrs)
	for _, tr := range b.traces {
		runSingle(pr, pc, cfg, tr)
	}
	return pr
}

func (b *specBench) crossEngine() (string, error) {
	return crossSingle(secureSystem(b.cfg.Warmup, b.cfg.Instrs), b.traces[0])
}

// campaignBench is the campaign workload: a fresh experiments.Runner
// per pass regenerating single-core figures at QuickOptions scale.
type campaignBench struct {
	cfg  config
	opts experiments.Options
	// crossTrace is the input of the cross-engine check: a GAP trace,
	// memory-bound, so the event engine skips many cycles there.
	crossTrace *trace.Trace
}

func newCampaign(traces []string, figures []string) *campaignBench {
	o := experiments.QuickOptions()
	if traces != nil {
		o.Traces = traces
	}
	o.Parallelism = runtime.NumCPU()
	return &campaignBench{
		opts: o,
		cfg: config{
			System:  "experiments.QuickOptions figures (all five prefetchers; secure and non-secure systems)",
			Traces:  o.Traces,
			Warmup:  o.Warmup,
			Instrs:  o.Instrs,
			Figures: figures,
			Threads: o.Parallelism,
		},
	}
}

func (b *campaignBench) config() config { return b.cfg }

func (b *campaignBench) setup(seed int64, spans *spanLog) (generated, error) {
	b.opts.Seed = seed
	// The runner maps a zero seed to its default; generate what it
	// will ask for, so no pass generates a trace.
	b.opts = experiments.NewRunner(b.opts).Options()
	p := workload.Params{Instrs: b.opts.Instrs + b.opts.Warmup, Seed: b.opts.Seed}
	trs, g, err := getTraces(b.opts.Traces, p, spans)
	if err != nil {
		return g, err
	}
	b.crossTrace = trs[len(trs)-1]
	return g, nil
}

func (b *campaignBench) pass(pc passConfig) *passResult {
	pr := &passResult{figSeconds: map[string]float64{}}
	camp := probe.NewCampaign(len(b.cfg.Figures))
	opts := b.opts
	opts.Campaign = camp
	var agg *observatory.Aggregate
	if pc.profile {
		agg = observatory.NewAggregate()
		opts.Profile = agg
	}
	r := experiments.NewRunner(opts)
	for _, id := range b.cfg.Figures {
		h := pc.spans.begin("experiments.Runner.Run " + id)
		t0 := time.Now()
		var t *experiments.Table
		err := safe(func() (err error) {
			t, err = r.Run(id)
			return err
		})
		pr.figSeconds[id] = time.Since(t0).Seconds()
		pc.spans.end(h)
		if err != nil {
			pr.add(id, 0, err)
			continue
		}
		// The table cells are the figure's output; notes are prose.
		pr.add(id, hashJSON(struct {
			ID     string
			Header []string
			Rows   [][]string
		}{t.ID, t.Header, t.Rows}), nil)
	}
	s := camp.Snapshot()
	pr.instrs, pr.cycles, pr.sims = s.Instructions, s.Cycles, s.RunsStarted
	if agg != nil {
		p := agg.Snapshot()
		pr.profile = &p
	}
	return pr
}

func (b *campaignBench) crossEngine() (string, error) {
	return crossSingle(secureSystem(b.opts.Warmup, b.opts.Instrs), b.crossTrace)
}

// census runs the campaign's traces under each prefetcher on the
// non-secure on-access system, and under the secure system, through
// sim.RunProbed. experiments.Runner exports no per-run Result, so the
// campaign's model counters are read from this pass instead.
func (b *campaignBench) census(pc passConfig) *passResult {
	pr := &passResult{}
	var cfgs []sim.Config
	for _, pf := range experiments.Prefetchers {
		cfg := sim.DefaultConfig()
		cfg.WarmupInstrs, cfg.MaxInstrs = b.opts.Warmup, b.opts.Instrs
		cfg.Prefetcher, cfg.Mode = pf, sim.ModeOnAccess
		if pf == "bingo" || pf == "spp-ppf" {
			// As the runner sizes them at harness scale.
			cfg.LatenessInterval = 512
		}
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, secureSystem(b.opts.Warmup, b.opts.Instrs))
	h := pc.spans.begin("census")
	for _, name := range b.opts.Traces {
		tr, err := workload.Get(name, workload.Params{Instrs: b.opts.Instrs + b.opts.Warmup, Seed: b.opts.Seed})
		if err != nil {
			pr.add(name, 0, err)
			continue
		}
		for _, cfg := range cfgs {
			runSingle(pr, pc, cfg, tr)
		}
	}
	pc.spans.end(h)
	return pr
}

// mixBench is the mix4 workload: the secure system on a heterogeneous
// 4-core mix, on the barrier-parallel engine.
type mixBench struct {
	cfg    config
	mc     multicore.Config
	traces []*trace.Trace
}

func newMix(warmup, instrs int) *mixBench {
	mc := multicore.DefaultConfig()
	mc.Single = secureSystem(warmup, instrs)
	names := []string{"605.mcf-1554B", "619.lbm-2676B", "602.gcc-1850B", "654.roms-1007B"}
	mc.Cores = len(names)
	threads := runtime.NumCPU()
	if threads > mc.Cores {
		threads = mc.Cores
	}
	return &mixBench{mc: mc, cfg: config{
		System: secureSystemName + ", 4 cores sharing LLC and DRAM",
		Traces: names, Warmup: warmup, Instrs: instrs, Threads: threads,
	}}
}

func (b *mixBench) config() config { return b.cfg }

func (b *mixBench) setup(seed int64, spans *spanLog) (generated, error) {
	b.mc.Seed = uint64(seed)
	var g generated
	var err error
	b.traces, g, err = getTraces(b.cfg.Traces, workload.Params{Instrs: b.cfg.Warmup + b.cfg.Instrs, Seed: seed}, spans)
	return g, err
}

func (b *mixBench) pass(pc passConfig) *passResult {
	pr := &passResult{}
	mix := make([]trace.Source, len(b.traces))
	for i, tr := range b.traces {
		mix[i] = trace.NewSource(tr)
	}
	p := multicore.Probes{Workers: b.cfg.Threads, ReferenceEngine: pc.reference, Interference: pc.interference}
	if pc.workers > 0 {
		p.Workers = pc.workers
	}
	if pc.profile {
		p.Profile = &observatory.Profile{}
	}
	if pc.observed {
		// cmd/bench's observed complement, minus the interference
		// observatory, which interference prices on its own.
		p.Windows = make([]probe.WindowObserver, len(mix))
		for i := range p.Windows {
			p.Windows[i] = probe.NewIntervalSampler(16)
		}
		p.WindowInstrs = 1000
		p.SharedObserver = probe.NewTracer(32, 1<<13)
	}
	name := "multicore.RunProbed"
	switch {
	case pc.reference:
		name += " reference"
	default:
		name += fmt.Sprintf(" workers=%d", p.Workers)
	}
	h := pc.spans.begin(name)
	var res *multicore.Result
	err := safe(func() (err error) {
		res, err = multicore.RunProbed(b.mc, mix, p)
		return err
	})
	pc.spans.end(h)
	pr.sims = 1
	if err != nil {
		pr.add("mix", 0, err)
		return pr
	}
	// Observers never change results; the snapshot itself is not part
	// of the output.
	res.Interference = nil
	pr.add("mix", hashJSON(res), nil)
	pr.cycles = res.Cycles
	for _, c := range res.PerCore {
		pr.instrs += c.Instructions
		pr.ipcs = append(pr.ipcs, c.IPC)
		pr.results = append(pr.results, c)
	}
	pr.profile = p.Profile
	return pr
}

func (b *mixBench) crossEngine() (string, error) {
	a := b.pass(passConfig{})
	r := b.pass(passConfig{reference: true})
	name := "mix parallel==lockstep"
	for _, o := range []output{a.outputs[0], r.outputs[0]} {
		if o.err != nil {
			return name, o.err
		}
	}
	if a.outputs[0].digest != r.outputs[0].digest {
		return name, fmt.Errorf("parallel digest %016x != lockstep %016x", a.outputs[0].digest, r.outputs[0].digest)
	}
	return name, nil
}

// overrunShare is the share of mix4's retired instructions that cores
// retired past their budget while the slowest core caught up.
func overrunShare(results []*sim.Result, budget int) float64 {
	var over, all uint64
	for _, r := range results {
		all += r.Instructions
		if r.Instructions > uint64(budget) {
			over += r.Instructions - uint64(budget)
		}
	}
	return ratio(float64(over), float64(all))
}
