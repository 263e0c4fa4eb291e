package expo_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"secpref/internal/expo"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// promFamily is one parsed Prometheus family: its header and samples
// keyed by their canonical label set.
type promFamily struct {
	Help, Type string
	Samples    map[string]float64
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseProm parses a Prometheus text exposition and checks it: HELP
// and TYPE once per family and before its samples, each family's lines
// contiguous, legal metric and label names, unique label sets within a
// family, counters named *_total, and values that parse.
func parseProm(body string) (map[string]*promFamily, error) {
	fams := map[string]*promFamily{}
	var cur string
	closed := map[string]bool{}
	enter := func(name string) (*promFamily, error) {
		if name != cur {
			if closed[name] {
				return nil, fmt.Errorf("family %s is not contiguous", name)
			}
			if cur != "" {
				closed[cur] = true
			}
			cur = name
		}
		f := fams[name]
		if f == nil {
			f = &promFamily{Samples: map[string]float64{}}
			fams[name] = f
		}
		return f, nil
	}
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" {
			continue
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			kw, rest := line[2:6], line[7:]
			name, text, _ := strings.Cut(rest, " ")
			if !metricName.MatchString(name) {
				return nil, bad("illegal metric name")
			}
			f, err := enter(name)
			if err != nil {
				return nil, bad("%v", err)
			}
			if len(f.Samples) > 0 {
				return nil, bad("%s after samples", kw)
			}
			if kw == "HELP" {
				if f.Help != "" {
					return nil, bad("duplicate HELP")
				}
				if text == "" {
					return nil, bad("empty HELP")
				}
				f.Help = text
				continue
			}
			if f.Type != "" {
				return nil, bad("duplicate TYPE")
			}
			if text != expo.Counter && text != expo.Gauge {
				return nil, bad("unknown type %q", text)
			}
			if text == expo.Counter && !strings.HasSuffix(name, "_total") {
				return nil, bad("counter not named *_total")
			}
			f.Type = text
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, bad("unexpected comment")
		}
		name, labels, value, err := splitSample(line)
		if err != nil {
			return nil, bad("%v", err)
		}
		if !metricName.MatchString(name) {
			return nil, bad("illegal metric name")
		}
		f, err := enter(name)
		if err != nil {
			return nil, bad("%v", err)
		}
		if f.Help == "" || f.Type == "" {
			return nil, bad("sample before HELP and TYPE")
		}
		if _, dup := f.Samples[labels]; dup {
			return nil, bad("duplicate label set")
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, bad("value: %v", err)
		}
		f.Samples[labels] = v
	}
	for name, f := range fams {
		if f.Help == "" || f.Type == "" {
			return nil, fmt.Errorf("family %s lacks HELP or TYPE", name)
		}
	}
	return fams, nil
}

// splitSample splits `name{k="v",...} value` into the name, the label
// set in canonical (sorted, unescaped) form, and the value text.
func splitSample(line string) (name, labels, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", "", fmt.Errorf("no value")
	}
	name, rest := line[:i], line[i:]
	var pairs []string
	if rest[0] == '{' {
		rest = rest[1:]
		seen := map[string]bool{}
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return "", "", "", fmt.Errorf("malformed label")
			}
			ln := rest[:eq]
			if !labelName.MatchString(ln) || strings.HasPrefix(ln, "__") {
				return "", "", "", fmt.Errorf("illegal label name %q", ln)
			}
			if seen[ln] {
				return "", "", "", fmt.Errorf("repeated label %q", ln)
			}
			seen[ln] = true
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					return "", "", "", fmt.Errorf("unterminated label value")
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' && rest != "" {
					switch rest[0] {
					case 'n':
						c = '\n'
					case '\\', '"':
						c = rest[0]
					default:
						return "", "", "", fmt.Errorf("bad escape")
					}
					rest = rest[1:]
				}
				val.WriteByte(c)
			}
			pairs = append(pairs, ln+"="+strconv.Quote(val.String()))
			if rest != "" && rest[0] == ',' {
				rest = rest[1:]
			}
		}
		if rest == "" {
			return "", "", "", fmt.Errorf("unterminated label set")
		}
		rest = rest[1:]
	}
	if !strings.HasPrefix(rest, " ") || strings.Contains(rest[1:], " ") {
		return "", "", "", fmt.Errorf("want exactly one value field")
	}
	sort.Strings(pairs)
	return name, strings.Join(pairs, ","), rest[1:], nil
}

// parseTrace decodes a Chrome trace-event document and checks every
// event: name, ph and pid always; ts on every non-metadata event; a
// positive dur on complete ("X") events. Absent ts and tid read as 0.
func parseTrace(raw []byte) ([]expo.Event, error) {
	var fields struct {
		TraceEvents *[]map[string]any `json:"traceEvents"`
	}
	var typed struct {
		TraceEvents []expo.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	if fields.TraceEvents == nil {
		return nil, fmt.Errorf("no traceEvents array")
	}
	if err := json.Unmarshal(raw, &typed); err != nil {
		return nil, err
	}
	for i, ev := range typed.TraceEvents {
		for _, k := range []string{"name", "ph", "pid"} {
			if _, ok := (*fields.TraceEvents)[i][k]; !ok {
				return nil, fmt.Errorf("event %d lacks %q", i, k)
			}
		}
		if _, ok := (*fields.TraceEvents)[i]["ts"]; !ok && ev.Phase != "M" {
			return nil, fmt.Errorf("event %d (ph %q) lacks ts", i, ev.Phase)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("event %d has an empty name", i)
		}
		if ev.Phase == "X" && ev.Dur == 0 {
			return nil, fmt.Errorf("event %d: complete event without positive dur", i)
		}
	}
	return typed.TraceEvents, nil
}

func render(t *testing.T, what string, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return b.Bytes()
}

func checkProm(t *testing.T, what string, write func(*bytes.Buffer) error) map[string]*promFamily {
	t.Helper()
	fams, err := parseProm(string(render(t, what, write)))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(fams) == 0 {
		t.Fatalf("%s: no families", what)
	}
	return fams
}

func checkTrace(t *testing.T, what string, write func(*bytes.Buffer) error) []expo.Event {
	t.Helper()
	evs, err := parseTrace(render(t, what, write))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(evs) == 0 {
		t.Fatalf("%s: no events", what)
	}
	return evs
}

func source(t *testing.T, name string) trace.Source {
	t.Helper()
	tr, err := workload.Get(name, workload.Params{Instrs: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewSource(tr)
}

// TestExportersParseBack runs every exporter over real single-core and
// multicore runs and parses each Prometheus and Chrome-trace output
// back through the validators, then does the same for one composed
// /metrics body (campaign, sim-profile aggregate and interference
// tracker together), which catches a family two writers both emit.
func TestExportersParseBack(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Secure, cfg.SUF, cfg.Prefetcher, cfg.Mode = true, true, "berti", sim.ModeTimelySecure
	cfg.WarmupInstrs, cfg.MaxInstrs = 1000, 5000
	prof := observatory.NewProfile()
	sampler := probe.NewIntervalSampler(8)
	tracer := probe.NewTracer(4, 1<<12)
	res, err := sim.RunProbed(cfg, source(t, "605.mcf-1554B"), sim.Probes{
		Profile: prof, Observer: tracer, Window: sampler, WindowInstrs: 500,
	})
	if err != nil {
		t.Fatal(err)
	}

	checkProm(t, "Profile", func(b *bytes.Buffer) error { return prof.WritePrometheus(b) })
	if evs := checkTrace(t, "Profile trace", func(b *bytes.Buffer) error { return prof.WriteChromeTrace(b, "unit") }); len(evs) != 2*len(prof.Track) {
		t.Errorf("Profile trace: %d events for %d track points", len(evs), len(prof.Track))
	}
	evs := checkTrace(t, "Tracer", func(b *bytes.Buffer) error { return tracer.WriteChromeTrace(b, "unit") })
	phases := map[string]int{}
	for _, ev := range evs {
		phases[ev.Phase]++
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Errorf("Tracer: phases %v, want metadata, complete and instant events", phases)
	}

	// The sampler exports JSON and CSV only: both must round-trip with
	// one interval per recorded window.
	var series struct {
		Intervals []probe.Row    `json:"intervals"`
		Samples   []probe.Sample `json:"cumulative"`
	}
	if err := json.Unmarshal(render(t, "IntervalSampler JSON", func(b *bytes.Buffer) error { return sampler.WriteJSON(b, "unit", "mcf") }), &series); err != nil {
		t.Fatalf("IntervalSampler JSON: %v", err)
	}
	if sampler.Len() < 2 || len(series.Intervals) != sampler.Len() || len(series.Samples) != sampler.Len() {
		t.Errorf("IntervalSampler JSON: %d intervals, %d samples for %d windows", len(series.Intervals), len(series.Samples), sampler.Len())
	}
	csvLines := strings.Split(strings.TrimSpace(string(render(t, "IntervalSampler CSV", func(b *bytes.Buffer) error { return sampler.WriteCSV(b) }))), "\n")
	if len(csvLines) != sampler.Len()+1 {
		t.Errorf("IntervalSampler CSV: %d lines for %d windows", len(csvLines), sampler.Len())
	}

	agg := observatory.NewAggregate()
	agg.Add(prof)
	checkProm(t, "Aggregate", func(b *bytes.Buffer) error { return agg.WritePrometheus(b) })

	camp := probe.NewCampaign(1)
	camp.SetEngineVersion(sim.EngineVersion)
	camp.RunStarted()
	camp.RunDone(res.Instructions, res.Cycles)
	camp.ExperimentDone()
	checkProm(t, "Campaign", func(b *bytes.Buffer) error { return camp.WritePrometheus(b) })

	mcfg := multicore.DefaultConfig()
	mcfg.Single = cfg
	mcfg.Single.WarmupInstrs, mcfg.Single.MaxInstrs = 400, 2000
	mcfg.Single.LLC.SizeKiB = 8
	shared := probe.NewTracer(4, 1<<12)
	mix := []trace.Source{source(t, "605.mcf-1554B"), source(t, "603.bwa-2931B"), source(t, "619.lbm-2676B"), source(t, "602.gcc-1850B")}
	eng, err := multicore.NewEngine(mcfg, mix, multicore.Probes{Interference: true, InterferenceWindow: 2048, SharedObserver: shared})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tracker := eng.Interference()
	snap := tracker.Snapshot()
	checkProm(t, "interference Snapshot", func(b *bytes.Buffer) error { return snap.WritePrometheus(b) })
	checkProm(t, "interference Tracker", func(b *bytes.Buffer) error { return tracker.WritePrometheus(b) })
	checkTrace(t, "interference Snapshot trace", func(b *bytes.Buffer) error { return snap.WriteChromeTrace(b) })
	checkTrace(t, "multicore shared Tracer", func(b *bytes.Buffer) error { return shared.WriteChromeTrace(b, "mix") })

	rec := httptest.NewRecorder()
	probe.NewHandler(camp, agg, tracker).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	composed, err := parseProm(rec.Body.String())
	if err != nil {
		t.Fatalf("composed /metrics: %v", err)
	}
	for _, prefix := range []string{"secpref_runs_", "secpref_sim_", "secpref_interference_"} {
		found := false
		for name := range composed {
			found = found || strings.HasPrefix(name, prefix)
		}
		if !found {
			t.Errorf("composed /metrics has no %s* family", prefix)
		}
	}
}

// TestValidatorsRejectMalformed keeps the validators honest: each
// malformed input must fail for the named reason.
func TestValidatorsRejectMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"duplicate HELP":         "# HELP a_total x\n# HELP a_total x\n# TYPE a_total counter\na_total 1\n",
		"sample before header":   "a_total 1\n# HELP a_total x\n# TYPE a_total counter\n",
		"counter without suffix": "# HELP a x\n# TYPE a counter\na 1\n",
		"duplicate label set":    "# HELP a x\n# TYPE a gauge\na{k=\"1\"} 1\na{k=\"1\"} 2\n",
		"illegal label name":     "# HELP a x\n# TYPE a gauge\na{0k=\"1\"} 1\n",
		"unparsable value":       "# HELP a x\n# TYPE a gauge\na one\n",
		"split family":           "# HELP a x\n# TYPE a gauge\na 1\n# HELP b x\n# TYPE b gauge\nb 1\na{k=\"2\"} 1\n",
	} {
		if _, err := parseProm(body); err == nil {
			t.Errorf("parseProm accepted %s", name)
		}
	}
	for name, doc := range map[string]string{
		"no traceEvents": `{"events":[]}`,
		"missing pid":    `{"traceEvents":[{"name":"a","ph":"i","ts":1}]}`,
		"missing ts":     `{"traceEvents":[{"name":"a","ph":"C","pid":1}]}`,
		"zero dur":       `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":0,"pid":1}]}`,
	} {
		if _, err := parseTrace([]byte(doc)); err == nil {
			t.Errorf("parseTrace accepted %s", name)
		}
	}
}

// TestWritePrometheusFormat pins the rendering rules the exporters
// rely on: integral values print as integers, label values are escaped,
// and a family with no samples still writes its header.
func TestWritePrometheusFormat(t *testing.T) {
	f := expo.Family{Name: "x_total", Help: "Help with \\ and\nnewline.", Type: expo.Counter}
	f.Add(12345678, "k", `quote " and \`)
	g := expo.Single("y", expo.Gauge, "Ratio.", 0.375)
	empty := expo.Family{Name: "z_total", Help: "Empty.", Type: expo.Counter}
	var b bytes.Buffer
	if err := expo.WritePrometheus(&b, f, g, empty); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total Help with \\\\ and\\nnewline.\n# TYPE x_total counter\n" +
		"x_total{k=\"quote \\\" and \\\\\"} 12345678\n" +
		"# HELP y Ratio.\n# TYPE y gauge\ny 0.375\n" +
		"# HELP z_total Empty.\n# TYPE z_total counter\n"
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}
	fams, err := parseProm(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if v := fams["x_total"].Samples[`k="quote \" and \\"`]; v != 12345678 {
		t.Errorf("escaped label did not round-trip: %v", fams["x_total"].Samples)
	}
}
