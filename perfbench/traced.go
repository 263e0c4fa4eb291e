package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// wallSampleEvery times every 64th tick of each rank in the traced
// pass: often enough for a stable per-tick mean, rarely enough that the
// clock reads stay a small share of the pass.
const wallSampleEvery = 64

// layerTable is the file the traced run writes next to its span trace.
type layerTable struct {
	Provenance provenance             `json:"provenance"`
	Metrics    map[string]metricValue `json:"metrics"`
	// EngineCounters and ModelCounters are the exact integer counts the
	// ratios derive from; both repeat bit for bit for the same code.
	EngineCounters map[string]uint64 `json:"engine_counters"`
	ModelCounters  map[string]uint64 `json:"model_counters"`
	Spans          []spanTotal       `json:"spans"`
}

// pairs is how many (plain, variant) pass pairs each overhead and
// engine-variant ratio is the median of.
const pairs = 3

// variantRatio runs pairs of one plain and one variant pass, swapping
// their order each pair so drift in host speed cancels, and returns
// the median of variant time over plain time with every variant pass.
// The first pair records spans when spans is set; label names them.
func variantRatio(b bench, c *checker, variant passConfig, spans *spanLog, label string) (float64, []*passResult) {
	var ratios []float64
	var vs []*passResult
	for i := 0; i < pairs; i++ {
		plain, v := passConfig{}, variant
		var sp *spanLog
		if i == 0 {
			sp = spans
			plain.spans, v.spans = sp, sp
		}
		run := func(name string, pc passConfig) *passResult {
			h := sp.begin(name)
			defer sp.end(h)
			return timedPass(b, pc)
		}
		var p, q *passResult
		if i%2 == 0 {
			p, q = run("plain pass", plain), run(label+" pass", v)
		} else {
			q, p = run(label+" pass", v), run("plain pass", plain)
		}
		c.pass(p)
		c.pass(q)
		ratios = append(ratios, q.seconds/p.seconds)
		vs = append(vs, q)
	}
	return median(ratios), vs
}

// runTraced makes the traced run: untraced passes for the baseline,
// traced passes that record spans and wall-sampled profiles, and the
// observer and engine-variant passes the per-layer metrics need, each
// paired with a plain pass. End-to-end metrics are never taken from it.
func runTraced(def workloadDef, o options) int {
	b := def.make()
	c := newChecker(o.pins.pinsFor(def.name, o.seed))
	spans := newSpanLog()
	g, err := setupAndWarm(b, o, c, spans)
	if err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 1
	}
	passes := timedPasses(b, o, c, nil)
	var secs []float64
	for _, p := range passes {
		secs = append(secs, p.seconds)
	}

	traceRatio, traced := variantRatio(b, c, passConfig{profile: true, wallEvery: wallSampleEvery}, spans, "traced")
	profRatio, profiled := variantRatio(b, c, passConfig{profile: true}, nil, "")
	tracedPass := traced[0]
	in := layerInputs{
		gen:         g,
		baseSeconds: median(secs),
		base:        passes[len(passes)/2],
		extra: map[string]float64{
			"bench.trace_overhead_share": traceRatio - 1,
			"observatory.overhead_share": profRatio - 1,
		},
	}
	// Every profiled pass, wall-sampled or not, must count exactly the
	// same engine work.
	for _, p := range append(traced, profiled...) {
		if p.profile == nil {
			fmt.Fprintln(o.stderr, "perfbench: profiled pass produced no profile")
			return 1
		}
		c.sameCounters("engine", engineCounters(p.profile, p.instrs))
	}
	in.engine = engineCounters(tracedPass.profile, tracedPass.instrs)

	model := tracedPass
	sharedLLC := false
	switch b := b.(type) {
	case *specBench:
		in.wall = tracedPass.profile
		r, _ := variantRatio(b, c, passConfig{observed: true}, nil, "")
		in.extra["probe.overhead_share"] = r - 1
	case *campaignBench:
		census := b.census(passConfig{spans: spans, profile: true, wallEvery: wallSampleEvery})
		c.errorsOnly(census)
		model, in.wall = census, census.profile
		for id, s := range medianFigSeconds(passes) {
			in.extra["experiments.fig_s."+id] = s
		}
		in.extra["experiments.cpu_util"] = ratio(in.base.cpuSeconds, in.base.seconds*float64(b.cfg.Threads))
	case *mixBench:
		sharedLLC = true
		r, _ := variantRatio(b, c, passConfig{observed: true}, nil, "")
		in.extra["probe.overhead_share"] = r - 1
		r, _ = variantRatio(b, c, passConfig{interference: true}, nil, "")
		in.extra["interference.overhead_share"] = r - 1
		// Spans of the first pairs time multicore.RunProbed under
		// Workers=1, Workers=nproc and the reference engine.
		h := spans.begin("engine variants")
		one, _ := variantRatio(b, c, passConfig{workers: 1}, spans, "workers=1")
		ref, _ := variantRatio(b, c, passConfig{reference: true}, spans, "reference")
		spans.end(h)
		in.extra["multicore.thread_speedup"] = one
		in.extra["multicore.speedup_vs_lockstep"] = ref
		in.extra["multicore.cpu_util"] = ratio(in.base.cpuSeconds, in.base.seconds*float64(b.cfg.Threads))
		in.extra["multicore.overrun_share"] = overrunShare(tracedPass.results, b.cfg.Instrs)
	}
	in.model = modelCounters(model.results, sharedLLC)
	if model == tracedPass {
		for _, p := range append(traced, profiled...) {
			c.sameCounters("model", modelCounters(p.results, sharedLLC))
		}
	}
	finalChecks(b, c)

	metrics := withUnits(perLayer, layerMetrics(in))
	res := resultLine{Correct: c.correct(), Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
	prov := newProvenance(def.name, o.seed, b.config())
	printTable(o.stderr, def, prov, res, perLayer)
	for _, p := range c.problems {
		fmt.Fprintln(o.stderr, "  FAILED:", p)
	}
	stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", def.name, o.seed))
	table := layerTable{Provenance: prov, Metrics: metrics, EngineCounters: in.engine, ModelCounters: in.model, Spans: spans.totals()}
	err = writeFile(stem+".layers.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(table)
	})
	if err == nil {
		err = writeFile(stem+".trace.json", func(w io.Writer) error { return spans.writeChrome(w, prov) })
	}
	if err == nil {
		err = appendRecord(o.out, c.record(prov, true, res))
	}
	if err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(o.stderr, "  layer table %s.layers.json, span trace %s.trace.json (load in ui.perfetto.dev)\n", stem, stem)
	return finish(o.stdout, res)
}

// medianFigSeconds is each campaign figure's median time over passes.
func medianFigSeconds(passes []*passResult) map[string]float64 {
	per := map[string][]float64{}
	for _, p := range passes {
		for id, s := range p.figSeconds {
			per[id] = append(per[id], s)
		}
	}
	out := map[string]float64{}
	for id, xs := range per {
		out[id] = median(xs)
	}
	return out
}
