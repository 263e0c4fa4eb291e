package multicore_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// detTraces is the quick-campaign 4-core mix; mcf (core 0) is the
// LLC-heavy one the wedge test black-holes.
var detTraces = []string{"605.mcf-1554B", "603.bwa-2931B", "619.lbm-2676B", "602.gcc-1850B"}

func detConfig() multicore.Config {
	cfg := multicore.DefaultConfig()
	cfg.Single.WarmupInstrs = 400
	cfg.Single.MaxInstrs = 2000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	cfg.Seed = 7
	return cfg
}

func detMix(t *testing.T) []trace.Source {
	t.Helper()
	mix := make([]trace.Source, len(detTraces))
	for i, n := range detTraces {
		tr, err := workload.Get(n, workload.Params{Instrs: 3000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mix[i] = trace.NewSource(tr)
	}
	return mix
}

// fingerprint reduces a Result to the comparable determinism witness.
type fingerprint struct {
	Cycles  uint64
	Digests []uint64
	Instrs  []uint64
	IPC     []float64
}

func fp(r *multicore.Result) fingerprint {
	f := fingerprint{Cycles: r.Cycles, Digests: r.FinalDigests}
	for _, rc := range r.PerCore {
		f.Instrs = append(f.Instrs, rc.Instructions)
		f.IPC = append(f.IPC, rc.IPC)
	}
	return f
}

// TestParallelMatchesReference is the bit-identity gate: the parallel
// engine and the serial lockstep reference must agree on the full
// digest stream, the final state digests, and every per-core result.
// The second row runs the same 4-core TSB+SUF mix ten times longer, so
// the reference engine itself is checked to reach its target without
// error or wedge on a run long enough to exercise the shared LLC/DRAM.
func TestParallelMatchesReference(t *testing.T) {
	long := detConfig()
	long.Single.WarmupInstrs = 1000
	long.Single.MaxInstrs = 10_000
	for _, tc := range []struct {
		name   string
		cfg    multicore.Config
		instrs int // trace length per core
	}{
		{"quick-mix", detConfig(), 3000},
		{"tsb-suf-10k", long, 12_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.instrs > 3000 && testing.Short() {
				t.Skip("simulation-heavy")
			}
			recRef, recPar := observatory.NewRecorder(), observatory.NewRecorder()
			ref, err := multicore.RunProbed(tc.cfg, mixSources(t, detTraces, tc.instrs), multicore.Probes{
				ReferenceEngine: true, Digest: recRef, DigestEvery: 512,
			})
			if err != nil {
				t.Fatal(err)
			}
			par, err := multicore.RunProbed(tc.cfg, mixSources(t, detTraces, tc.instrs), multicore.Probes{
				Digest: recPar, DigestEvery: 512,
			})
			if err != nil {
				t.Fatal(err)
			}
			if d, bad := observatory.FirstDivergence(recRef, recPar); bad {
				t.Fatalf("digest streams diverge: %s", d)
			}
			if recRef.Len() == 0 {
				t.Fatal("digest stream empty — run too short to exercise the gate")
			}
			if !reflect.DeepEqual(fp(ref), fp(par)) {
				t.Fatalf("results diverge:\nref %+v\npar %+v", fp(ref), fp(par))
			}
			for i, rc := range ref.PerCore {
				if rc.Instructions < uint64(tc.cfg.Single.MaxInstrs) {
					t.Errorf("core %d retired %d of %d instructions", i, rc.Instructions, tc.cfg.Single.MaxInstrs)
				}
			}
		})
	}
}

// TestDeterminismAcrossSchedules asserts bit-identical results across
// worker counts, GOMAXPROCS values, barrier intervals within the
// safety bound, and repeated runs.
func TestDeterminismAcrossSchedules(t *testing.T) {
	cfg := detConfig()
	base, err := multicore.RunProbed(cfg, detMix(t), multicore.Probes{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fp(base)
	bound := sim.DefaultLinkLatency

	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			for _, interval := range []mem.Cycle{1, bound} {
				got, err := multicore.RunProbed(cfg, detMix(t), multicore.Probes{
					Workers: workers, Interval: interval,
				})
				if err != nil {
					t.Fatalf("procs=%d workers=%d interval=%d: %v", procs, workers, interval, err)
				}
				if !reflect.DeepEqual(want, fp(got)) {
					t.Fatalf("procs=%d workers=%d interval=%d diverged from baseline", procs, workers, interval)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// Repetition with identical parameters.
	again, err := multicore.RunProbed(cfg, detMix(t), multicore.Probes{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, fp(again)) {
		t.Fatal("repeated run diverged")
	}
}

// TestIntervalAboveBoundRejected: the safety bound is enforced, not
// advisory.
func TestIntervalAboveBoundRejected(t *testing.T) {
	cfg := detConfig()
	_, err := multicore.NewEngine(cfg, detMix(t), multicore.Probes{
		Interval: sim.DefaultLinkLatency + 1,
	})
	if err == nil {
		t.Fatal("interval above the safety bound was accepted")
	}
}

// TestBisectAcrossEngines drives observatory.Bisect over a
// (parallel, reference) engine pair. Equivalent engines must scan to
// completion with no divergence; a pair that genuinely differs (here:
// different link latencies) must bisect to a concrete coordinate.
func TestBisectAcrossEngines(t *testing.T) {
	cfg := detConfig()
	fresh := func() (observatory.DigestEngine, observatory.DigestEngine, error) {
		par, err := multicore.NewEngine(cfg, detMix(t), multicore.Probes{})
		if err != nil {
			return nil, nil, err
		}
		ref, err := multicore.NewEngine(cfg, detMix(t), multicore.Probes{ReferenceEngine: true})
		if err != nil {
			return nil, nil, err
		}
		return par, ref, nil
	}
	div, err := observatory.Bisect(fresh, observatory.BisectOptions{Step: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("equivalent engines reported divergent: %s", div)
	}

	slow := cfg
	slow.LinkLatency = sim.DefaultLinkLatency / 2
	mismatched := func() (observatory.DigestEngine, observatory.DigestEngine, error) {
		a, err := multicore.NewEngine(cfg, detMix(t), multicore.Probes{})
		if err != nil {
			return nil, nil, err
		}
		b, err := multicore.NewEngine(slow, detMix(t), multicore.Probes{})
		if err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	div, err = observatory.Bisect(mismatched, observatory.BisectOptions{Step: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("mismatched link latencies were not detected")
	}
}

// TestBlackHoledCoreWedges: dropping one core's LLC traffic must yield
// a deterministic ErrNoProgress on both engines and at both interval
// extremes — the per-core wedge detector cannot be masked by the other
// cores' continued progress.
func TestBlackHoledCoreWedges(t *testing.T) {
	cfg := detConfig()
	for _, tc := range []struct {
		name   string
		probes multicore.Probes
	}{
		{"parallel-bound", multicore.Probes{}},
		{"parallel-interval1", multicore.Probes{Interval: 1}},
		{"reference", multicore.Probes{ReferenceEngine: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := multicore.NewEngine(cfg, detMix(t), tc.probes)
			if err != nil {
				t.Fatal(err)
			}
			e.BlackHoleCore(0)
			if _, err := e.Run(); !errors.Is(err, sim.ErrNoProgress) {
				t.Fatalf("want ErrNoProgress, got %v", err)
			}
		})
	}
}
