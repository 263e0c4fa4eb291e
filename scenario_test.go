package secpref_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// The two recorded scenarios the paper's single-core IPC and 4-core
// weighted-speedup results rest on. Their output digests and engine
// work counters are exact properties of the simulator: they hold on any
// host and fail on any change that moves a simulated number or adds
// work. Allocations per run are held to budgets of 1.5x the counts
// recorded at engine ev7-flat-profile plus 64 for runtime background
// noise. BenchmarkSimulatorThroughput and BenchmarkMulticoreThroughput
// time the same scenarios.

// Recorded output digests: FNV-1a over the JSON-encoded result.
const (
	singleScenarioDigest    = 0xf46ca1ea9359064b
	multicoreScenarioDigest = 0x8ba482e5c11eef6e
)

// singleScenario is the heaviest single-core configuration: the secure
// system (GhostMinion + SUF + TSB over Berti) on 50k instructions of
// 602.gcc-1850B.
func singleScenario(tb testing.TB) (sim.Config, *trace.Trace) {
	tb.Helper()
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 0
	cfg.MaxInstrs = 50_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = sim.ModeTimelySecure
	return cfg, tr
}

// multicoreScenario is rate mode on the 4-core secure system: four
// copies of the memory-bound 605.mcf-1554B (disjoint address spaces),
// 2k warmup plus 10k measured instructions per core. Every core spends
// most cycles waiting on the shared DRAM, the contention case of the
// paper's multi-core study.
func multicoreScenario(tb testing.TB) (multicore.Config, []*trace.Trace) {
	tb.Helper()
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 12_000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := multicore.DefaultConfig()
	cfg.Single.WarmupInstrs = 2000
	cfg.Single.MaxInstrs = 10_000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	return cfg, []*trace.Trace{tr, tr, tr, tr}
}

// sources opens a fresh source over each trace of a mix.
func sources(trs []*trace.Trace) []trace.Source {
	mix := make([]trace.Source, len(trs))
	for i, tr := range trs {
		mix[i] = trace.NewSource(tr)
	}
	return mix
}

// scenarioProbes is the single-core probed flavour: campaign-style
// attachments, every 32nd load traced into an 8Ki ring and one window
// sample per ~1k instructions.
func scenarioProbes() sim.Probes {
	return sim.Probes{
		Observer: probe.NewTracer(32, 1<<13),
		Window:   probe.NewIntervalSampler(52),
	}
}

// mcObservedProbes is the multicore observed flavour: the interference
// observatory, one interval sampler per core and a shared-domain
// lifecycle tracer.
func mcObservedProbes(cores int) multicore.Probes {
	windows := make([]probe.WindowObserver, cores)
	for i := range windows {
		windows[i] = probe.NewIntervalSampler(16)
	}
	return multicore.Probes{
		Interference:   true,
		Windows:        windows,
		WindowInstrs:   1000,
		SharedObserver: probe.NewTracer(32, 1<<13),
	}
}

// hashJSON is the recorded digest function.
func hashJSON(tb testing.TB, v any) uint64 {
	tb.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return observatory.HashBytes(raw)
}

// mcDigest hashes the fields multicore.Result had when its digest was
// recorded; the later Interference snapshot is an observer's output,
// not a simulated result.
func mcDigest(tb testing.TB, res *multicore.Result) uint64 {
	return hashJSON(tb, struct {
		PerCore      []*sim.Result
		Cycles       uint64
		FinalDigests []uint64
	}{res.PerCore, res.Cycles, res.FinalDigests})
}

// countAllocs returns the heap allocations f makes.
func countAllocs(f func()) uint64 {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	f()
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs
}

// checkAllocs fails when a run allocated more than its budget.
func checkAllocs(t *testing.T, what string, got, budget uint64) {
	t.Helper()
	if got > budget {
		t.Errorf("%s: %d allocs per run, budget %d", what, got, budget)
	} else {
		t.Logf("%s: %d allocs per run (budget %d)", what, got, budget)
	}
}

// checkTicks compares a profile's per-rank ticks with their pins.
func checkTicks(t *testing.T, what string, p *observatory.Profile, want map[string]uint64) {
	t.Helper()
	if len(p.Ranks) != len(want) {
		t.Errorf("%s: %d profiled ranks, want %d", what, len(p.Ranks), len(want))
	}
	for _, r := range p.Ranks {
		if w, ok := want[r.Name]; !ok || r.Ticks != w {
			t.Errorf("%s: rank %s ticked %d times, pinned %d", what, r.Name, r.Ticks, w)
		}
	}
}

// Deterministic work counters of the two scenarios: ticks per rank of
// the event engine. An engine change that adds work moves them on any
// host. A model change re-pins these numbers together with
// sim.EngineVersion.
var (
	singleScenarioTicks = map[string]uint64{
		"core": 23165, "gm": 29321, "l1d": 44340, "l2": 19389, "llc": 10162, "dram": 11632,
	}
	// Merged over every core's private domain and the shared domain;
	// identical at any worker count.
	multicoreScenarioTicks = map[string]uint64{
		"core": 47680, "gm": 58065, "l1d": 73856, "l2": 43280, "llc": 34929, "dram": 41541, "link": 18856,
	}
)

// maxTickShare caps any single rank's share of engine ticks in the
// single-core scenario: the flat profile is a maintained property.
const maxTickShare = 0.40

func TestSingleScenario(t *testing.T) {
	cfg, tr := singleScenario(t)
	for _, fl := range []struct {
		name   string
		probes sim.Probes
	}{
		{"plain", sim.Probes{}},
		{"probed", scenarioProbes()},
	} {
		var res *sim.Result
		var err error
		n := countAllocs(func() { res, err = sim.RunProbed(cfg, trace.NewSource(tr), fl.probes) })
		if err != nil {
			t.Fatalf("%s: %v", fl.name, err)
		}
		if got := hashJSON(t, res); got != singleScenarioDigest {
			t.Errorf("%s: output digest %016x, recorded %016x", fl.name, got, uint64(singleScenarioDigest))
		}
		checkAllocs(t, fl.name, n, 263)
	}

	prof := observatory.NewProfile()
	res, err := sim.RunProbed(cfg, trace.NewSource(tr), sim.Probes{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if got := hashJSON(t, res); got != singleScenarioDigest {
		t.Errorf("profiled: output digest %016x, recorded %016x", got, uint64(singleScenarioDigest))
	}
	checkTicks(t, "profiled", prof, singleScenarioTicks)
	for _, row := range prof.Table() {
		if row.TickShare > maxTickShare {
			t.Errorf("rank %s holds %.1f%% of engine ticks (max %.0f%%)", row.Rank, 100*row.TickShare, 100*maxTickShare)
		}
	}
}

func TestMulticoreScenario(t *testing.T) {
	cfg, trs := multicoreScenario(t)
	nproc := runtime.NumCPU()
	for _, fl := range []struct {
		name      string
		probes    multicore.Probes
		maxAllocs uint64
	}{
		{"lockstep", multicore.Probes{ReferenceEngine: true}, 727},
		{"parallel/workers=1", multicore.Probes{Workers: 1}, 748},
		{fmt.Sprintf("parallel/workers=%d", nproc), multicore.Probes{Workers: nproc}, 748},
		{"observed", mcObservedProbes(cfg.Cores), 836},
	} {
		mix := sources(trs)
		var res *multicore.Result
		var err error
		n := countAllocs(func() { res, err = multicore.RunProbed(cfg, mix, fl.probes) })
		if err != nil {
			t.Fatalf("%s: %v", fl.name, err)
		}
		if got := mcDigest(t, res); got != multicoreScenarioDigest {
			t.Errorf("%s: output digest %016x, recorded %016x", fl.name, got, uint64(multicoreScenarioDigest))
		}
		checkAllocs(t, fl.name, n, fl.maxAllocs)
	}

	for _, workers := range []int{1, nproc} {
		what := fmt.Sprintf("profiled parallel/workers=%d", workers)
		prof := observatory.NewProfile()
		res, err := multicore.RunProbed(cfg, sources(trs), multicore.Probes{Workers: workers, Profile: prof})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := mcDigest(t, res); got != multicoreScenarioDigest {
			t.Errorf("%s: output digest %016x, recorded %016x", what, got, uint64(multicoreScenarioDigest))
		}
		checkTicks(t, what, prof, multicoreScenarioTicks)
	}
}
