package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames checks the metric lists against the benchmark's
// naming rules and against BENCHMARK.json, which must list the same
// metrics with the same units and directions.
func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("illegal metric name %q", d.name)
		}
		if !unitName.MatchString(d.unit) {
			t.Errorf("%s: illegal unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != better {
				t.Errorf("%s[%d]: code has %s %s %s, BENCHMARK.json %s %s %s", kind, i, d.name, d.unit, better, l.Name, l.Unit, l.Better)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{19, 0, 0, false}, // the median has only 9 samples above it
		{20, 50, 10, true},
		{99, 50, 50, true}, // p90 is sample 90: 9 above
		{100, 90, 90, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.value || ok != c.ok {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", c.n, pct, v, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q := quartiles(seq(10)); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

// small returns the workloads at smoke-test size.
func small() map[string]workloadDef {
	return map[string]workloadDef{
		"spec-secure": {name: "spec-secure", make: func() bench { return newSpec(1000, 5000) }, setupSamples: 1, rssSamples: 1},
		"campaign": {name: "campaign", setupSamples: 1, rssSamples: 1, make: func() bench {
			b := newCampaign([]string{"602.gcc-1850B", "654.roms-1007B"}, []string{"fig1", "fig12a"})
			b.opts.Instrs, b.opts.Warmup = 2000, 500
			b.cfg.Instrs, b.cfg.Warmup = 2000, 500
			return b
		}},
		"mix4": {name: "mix4", make: func() bench { return newMix(500, 2000) }, setupSamples: 1, rssSamples: 1},
	}
}

type lastLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}

func parseLast(t *testing.T, out string) lastLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func testOptions(t *testing.T, pins pinFile) (options, *bytes.Buffer) {
	var stdout bytes.Buffer
	return options{seed: 1, out: t.TempDir(), pins: pins, stdout: &stdout, stderr: &bytes.Buffer{}}, &stdout
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each prints all its metrics and judges its outputs
// correct (by cross-engine equality: these sizes have no pins).
func TestSmoke(t *testing.T) {
	for name, def := range small() {
		t.Run(name, func(t *testing.T) {
			o, stdout := testOptions(t, pinFile{})
			if code := runBench(def, o); code != 0 {
				t.Fatalf("untraced run exited %d: %s", code, o.stderr)
			}
			r := parseLast(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("untraced run: %+v\n%s", r, o.stderr)
			}
			for _, d := range endToEnd {
				if m, ok := r.Metrics[d.name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value", d.name, m)
				}
			}

			stdout.Reset()
			if code := runTraced(def, o); code != 0 {
				t.Fatalf("traced run exited %d: %s", code, o.stderr)
			}
			r = parseLast(t, stdout.String())
			if !r.Correct || len(r.Metrics) != len(perLayer) {
				t.Fatalf("traced run: correct=%v, %d metrics\n%s", r.Correct, len(r.Metrics), o.stderr)
			}
			if r.Metrics["sim.ticks_per_kinstr"].Value <= 0 {
				t.Errorf("sim.ticks_per_kinstr = %v", r.Metrics["sim.ticks_per_kinstr"])
			}
			stem := filepath.Join(o.out, name+"-seed1")
			var trace struct{ TraceEvents []chromeEvent }
			raw, err := os.ReadFile(stem + ".trace.json")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("span trace: %v, %d events", err, len(trace.TraceEvents))
			}
			if _, err := os.Stat(stem + ".layers.json"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDigestMismatchFails pins a wrong digest: every output checked
// against it must count as failed, and the command must exit nonzero.
func TestDigestMismatchFails(t *testing.T) {
	def := small()["spec-secure"]
	pins := pinFile{Workloads: map[string]pinnedSeries{"spec-secure": {Seeds: map[string]map[string]string{"1": {
		"602.gcc-1850B": "0000000000000000", // wrong
	}}}}}
	o, stdout := testOptions(t, pins)
	if code := runBench(def, o); code == 0 {
		t.Fatal("exit code 0 with a wrong pinned digest")
	}
	r := parseLast(t, stdout.String())
	// Each pass runs four traces; a pinned seed checks all four, and
	// three of them have no pin at all.
	if r.Correct || r.Failed == 0 || r.Failed%4 != 0 {
		t.Fatalf("result %+v, want every pinned-seed output failed", r)
	}
	recs, err := readRecords(filepath.Join(o.out, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[0].FailedShare; got != float64(r.Failed)/float64(r.Attempted) || got == 0 {
		t.Errorf("failed_share %g, want %d/%d", got, r.Failed, r.Attempted)
	}
}

// TestPinsMatchConfigs keeps pinned.json in step with the workloads:
// a changed workload must be pinned again.
func TestPinsMatchConfigs(t *testing.T) {
	pins, err := loadPins(pinnedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		got, want := pins.Workloads[def.name].Config, def.make().config()
		got.Threads, want.Threads = 0, 0 // outputs do not depend on it
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: pinned for %s, workload is %s; run -pin again", def.name, a, b)
		}
		if len(pins.Workloads[def.name].Seeds) == 0 {
			t.Errorf("%s: no pinned seeds", def.name)
		}
	}
}

func TestCompareRefusesMixedHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, fp string) string {
		rec := record{Provenance: provenance{Workload: "mix4", Fingerprint: fp}}
		if err := appendRecord(filepath.Join(dir, name), rec); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, name, "records.jsonl")
	}
	a, b := write("a", "host-a"), write("b", "host-b")
	var out, errb bytes.Buffer
	if code := run([]string{"-compare", a + "," + b, "-bounds", filepath.Join("..", "BENCHMARK.json")}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "refusing") {
		t.Errorf("stderr %q does not say it refused", errb.String())
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "mix4", "-trace", "2"},
		{"-pin", "5-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
