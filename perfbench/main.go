// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's library entry points, checks the
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. See README.md for the workloads, metrics and layer map.
//
//	perfbench -workload spec-secure -seed 1 -seconds 10 -trace 0
//	perfbench -workload mix4 -seed 3 -seconds 10 -trace 1
//	perfbench -pin 1-16 -pin-out perfbench/pinned.json
//	perfbench -compare base.jsonl,change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric, its unit, and its direction.
type metricDef struct {
	name   string
	unit   string
	higher bool
}

// endToEnd lists the end-to-end metrics printed with -trace 0. Pass
// timings are process CPU time scaled by a calibration run next to each
// pass (see calibration) to the reference host's speed: on a shared VM
// the wall-clock and CPU-time spreads over ten seeds reached 0.27 of the
// median, past any usable bound. Set-up time is process CPU time.
// failed_share is printed in the table; in the JSON line it is the
// failed and attempted fields, since it reads 0 on a correct run.
var endToEnd = []metricDef{
	{"sim_instrs_per_ref_s", "1/s", true},
	{"pass_ref_s", "s", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MB", false},
	{"sim_ipc", "instr/cycle", true},
}

// unscaled lists the raw twins of the pass metrics. Wall time is what
// a user waits for and the only place thread scaling shows, so the
// table and the records carry them; they are not gated.
var unscaled = []metricDef{
	{"sim_instrs_per_s", "1/s", true},
	{"pass_s", "s", false},
	{"pass_cpu_s", "s", false},
	{"calib_cpu_s", "s", false},
}

// workloadDef is a named workload and how to build it.
type workloadDef struct {
	name string
	make func() bench
	// setupSamples is how many fresh processes time set-up, this one
	// included; setup_s is their median.
	setupSamples int
	// rssSamples is how many untimed passes after the timed ones each
	// measure their RSS high-water mark; peak_rss_mb is their median.
	rssSamples int
}

var workloads = []workloadDef{
	{
		name:         "spec-secure",
		make:         func() bench { return newSpec(20_000, 200_000) },
		setupSamples: 9,
		rssSamples:   5,
	},
	{
		name:         "campaign",
		make:         func() bench { return newCampaign(nil, []string{"fig1", "fig12a", "fig12b"}) },
		setupSamples: 3,
		rssSamples:   3,
	},
	{
		name:         "mix4",
		make:         func() bench { return newMix(5_000, 20_000) },
		setupSamples: 9,
		rssSamples:   5,
	},
}

func lookup(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	out     string
	// children enables the fresh-process set-up samples; tests, whose
	// binary cannot be re-run as the benchmark, turn it off.
	children bool
	pins     pinFile
	stdout   io.Writer
	stderr   io.Writer
}

// minPasses is the fewest timed passes a run makes, however long they
// take, so a median exists.
const minPasses = 3

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spec-secure, campaign or mix4")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Float64("seconds", 10, "how long to run timed passes")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for records, layer tables and span traces")
	setupOnly := fs.Bool("setup-only", false, "time the workload's set-up once and print it (the fresh-process set-up sample)")
	pin := fs.String("pin", "", "seed range lo-hi: print pinned output digests for every workload")
	pinOut := fs.String("pin-out", "", "with -pin: write the digests to this file instead of standard output")
	compare := fs.String("compare", "", "base.jsonl,change.jsonl: compare two sets of records from the same host")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -compare: the file holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return runCompare(*compare, *bounds, stdout, stderr)
	}
	pins, err := loadPins(pinnedJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, out: *out, children: true, pins: pins, stdout: stdout, stderr: stderr}
	if *pin != "" {
		return runPin(*pin, *pinOut, o)
	}
	def, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	switch {
	case *setupOnly:
		return runSetupOnly(def, o)
	case *traced == 1:
		return runTraced(def, o)
	case *traced == 0:
		return runBench(def, o)
	}
	fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
	return 2
}

// setupResult is the line a -setup-only child prints.
type setupResult struct {
	SetupS float64 `json:"setup_s"`
}

func runSetupOnly(def workloadDef, o options) int {
	g, err := def.make().setup(o.seed, nil)
	if err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 1
	}
	return emit(o.stdout, setupResult{g.seconds})
}

// childSetup times set-up in a fresh process: workload's trace and
// graph caches are process-global, so only a new process pays set-up
// again.
func childSetup(def workloadDef, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", def.name, "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var r setupResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, fmt.Errorf("set-up child output: %w", err)
	}
	return r.SetupS, nil
}

// setupAndWarm sets the workload up in this process and runs one
// untimed pass so lazy state is built before timing.
func setupAndWarm(b bench, o options, c *checker, spans *spanLog) (generated, error) {
	h := spans.begin("setup")
	g, err := b.setup(o.seed, spans)
	spans.end(h)
	if err != nil {
		return g, fmt.Errorf("set-up: %w", err)
	}
	c.pass(timedPass(b, passConfig{}))
	return g, nil
}

// timedPasses runs untraced passes for o.seconds, and at least
// minPasses of them, checking each. With cal set, each pass follows a
// calibration run.
func timedPasses(b bench, o options, c *checker, cal *calibration) []*passResult {
	var passes []*passResult
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < o.seconds {
		var calib float64
		if cal != nil {
			calib = cal.run()
		}
		pr := timedPass(b, passConfig{})
		pr.calibSeconds = calib
		c.pass(pr)
		passes = append(passes, pr)
	}
	return passes
}

// rssPasses runs n untimed, checked passes and returns each one's RSS
// high-water mark in MB. Where the mark cannot be reset, it falls back
// to the whole-process mark, once, and says so.
func rssPasses(b bench, n int, c *checker, stderr io.Writer) []float64 {
	var peaks []float64
	for i := 0; i < n; i++ {
		var pr *passResult
		mb, err := passPeakRSSMB(func() { pr = b.pass(passConfig{}) })
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: peak_rss_mb is the whole-process mark:", err)
			return []float64{peakRSSMB()}
		}
		c.pass(pr)
		peaks = append(peaks, mb)
	}
	return peaks
}

// finalChecks runs the correctness checks that follow the timed
// passes: cross-engine equality for a seed with no pinned digests, and
// cmd/bench's recorded scenarios.
func finalChecks(b bench, c *checker) {
	if c.pinned == nil {
		c.result(b.crossEngine())
	}
	scenarioChecks(c)
}

func runBench(def workloadDef, o options) int {
	b := def.make()
	c := newChecker(o.pins.pinsFor(def.name, o.seed))
	g, err := setupAndWarm(b, o, c, nil)
	if err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 1
	}
	setups := []float64{g.seconds}
	for i := 1; o.children && i < def.setupSamples; i++ {
		s, err := childSetup(def, o.seed)
		if err != nil {
			fmt.Fprintln(o.stderr, "perfbench:", err)
			return 1
		}
		setups = append(setups, s)
	}
	passes := timedPasses(b, o, c, newCalibration())
	// Before the final checks, whose work depends on whether the seed
	// is pinned.
	rss := rssPasses(b, def.rssSamples, c, o.stderr)
	finalChecks(b, c)

	var secs, rates, cpus, calibs, refs, refRates []float64
	for _, p := range passes {
		ref := p.cpuSeconds * calibRefSeconds / p.calibSeconds
		secs = append(secs, p.seconds)
		rates = append(rates, float64(p.instrs)/p.seconds)
		cpus = append(cpus, p.cpuSeconds)
		calibs = append(calibs, p.calibSeconds)
		refs = append(refs, ref)
		refRates = append(refRates, float64(p.instrs)/ref)
	}
	metrics := withUnits(endToEnd, map[string]float64{
		"sim_instrs_per_ref_s": median(refRates),
		"pass_ref_s":           median(refs),
		"setup_s":              median(setups),
		"peak_rss_mb":          median(rss),
		"sim_ipc":              passes[0].ipc(),
	})
	raw := withUnits(unscaled, map[string]float64{
		"sim_instrs_per_s": median(rates),
		"pass_s":           median(secs),
		"pass_cpu_s":       median(cpus),
		"calib_cpu_s":      median(calibs),
	})
	res := resultLine{Correct: c.correct(), Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
	prov := newProvenance(def.name, o.seed, b.config())
	printTable(o.stderr, def, prov, res, endToEnd)
	for _, d := range unscaled {
		printMetric(o.stderr, d, raw[d.name], "(not gated)")
	}
	fmt.Fprintf(o.stderr, "  %-34s %s\n", "pass_ref_s samples", timingSummary(refs))
	fmt.Fprintf(o.stderr, "  %-34s %s\n", "pass_s samples", timingSummary(secs))
	fmt.Fprintf(o.stderr, "  %-34s %s\n", "setup_s samples", timingSummary(setups))
	fmt.Fprintf(o.stderr, "  %-34s %s\n", "peak_rss_mb samples", timingSummary(rss))
	for _, p := range c.problems {
		fmt.Fprintln(o.stderr, "  FAILED:", p)
	}
	rec := c.record(prov, false, res)
	rec.Unscaled, rec.PassSeconds, rec.PassCPUSeconds, rec.CalibSeconds, rec.SetupSeconds = raw, secs, cpus, calibs, setups
	rec.PeakRSSMB = rss
	if err := appendRecord(o.out, rec); err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 1
	}
	return finish(o.stdout, res)
}

// finish prints the result line and picks the exit code: nonzero when
// any output was wrong.
func finish(w io.Writer, res resultLine) int {
	if code := emit(w, res); code != 0 {
		return code
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func emit(w io.Writer, v any) int {
	raw, err := json.Marshal(v)
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(raw))
	return 0
}

// withUnits pairs each listed metric's value with its unit.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{values[d.name], d.unit}
	}
	return out
}

func hexDigests(m map[string]uint64) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = fmt.Sprintf("%016x", v)
	}
	return out
}

// timingSummary states a timing's median and its tail with the sample
// count.
func timingSummary(xs []float64) string {
	s := fmt.Sprintf("n=%d median=%.6g", len(xs), median(xs))
	if p, v, ok := tail(xs); ok {
		return s + fmt.Sprintf(" p%g=%.6g", p, v)
	}
	return s + fmt.Sprintf(" (no percentile has %d samples beyond it)", minBeyond)
}

func printTable(w io.Writer, def workloadDef, prov provenance, res resultLine, defs []metricDef) {
	fmt.Fprintf(w, "perfbench %s seed=%d engine=%s rev=%s host=%s (%d CPUs, GOMAXPROCS %d, %s, %s)\n",
		def.name, prov.Seed, prov.EngineVersion, prov.Revision, prov.Fingerprint,
		prov.Host.NProc, prov.Host.GOMAXPROCS, prov.Host.CPUModel, prov.Host.GoVersion)
	for _, d := range defs {
		printMetric(w, d, res.Metrics[d.name], "")
	}
	printMetric(w, metricDef{"failed_share", "share", false},
		metricValue{ratio(float64(res.Failed), float64(res.Attempted)), "share"},
		fmt.Sprintf("(%d of %d attempted)", res.Failed, res.Attempted))
}

func printMetric(w io.Writer, d metricDef, m metricValue, note string) {
	dir := "lower is better"
	if d.higher {
		dir = "higher is better"
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-11s %s %s\n", d.name, m.Value, m.Unit, dir, note)
}

// record is one line of records.jsonl.
type record struct {
	Provenance     provenance             `json:"provenance"`
	Trace          bool                   `json:"trace"`
	Result         resultLine             `json:"result"`
	FailedShare    float64                `json:"failed_share"`
	Unscaled       map[string]metricValue `json:"unscaled,omitempty"`
	PassSeconds    []float64              `json:"pass_s_samples,omitempty"`
	PassCPUSeconds []float64              `json:"pass_cpu_s_samples,omitempty"`
	CalibSeconds   []float64              `json:"calib_cpu_s_samples,omitempty"`
	SetupSeconds   []float64              `json:"setup_s_samples,omitempty"`
	PeakRSSMB      []float64              `json:"peak_rss_mb_samples,omitempty"`
	Digests        map[string]string      `json:"digests"`
	Problems       []string               `json:"problems,omitempty"`
}

func appendRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "records.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFile creates path, lets write fill it, and checks Close.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
