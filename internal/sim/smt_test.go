package sim

import (
	"reflect"
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

func smtSources(t *testing.T, a, b string, n int) []trace.Source {
	t.Helper()
	out := make([]trace.Source, 2)
	for i, name := range []string{a, b} {
		tr, err := workload.Get(name, workload.Params{Instrs: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = trace.NewSource(tr)
	}
	return out
}

func TestSMTBothThreadsRetire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 1000
	cfg.MaxInstrs = 10_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure
	res, err := RunSMT(cfg, smtSources(t, "605.mcf-1554B", "602.gcc-1850B", 12_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.Instructions < 10_000 {
			t.Errorf("thread %d retired %d", i, r.Instructions)
		}
		if r.Core.SUFDrops == 0 {
			t.Errorf("thread %d: SUF inactive", i)
		}
		t.Logf("thread %d (%s): IPC=%.3f SUF acc=%.1f%%", i, r.TraceName, r.IPC, r.SUFAccuracy()*100)
	}
}

func TestSMTSharingSlowsThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 20_000
	cfg.Secure = true
	// Alone.
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 24_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Run(cfg, trace.NewSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Sharing the L1D/L2 with a second copy of itself.
	pair, err := RunSMT(cfg, smtSources(t, "605.mcf-1554B", "605.mcf-1554B", 24_000))
	if err != nil {
		t.Fatal(err)
	}
	if pair[0].IPC >= alone.IPC*1.02 {
		t.Errorf("SMT thread faster than running alone: %.3f vs %.3f", pair[0].IPC, alone.IPC)
	}
}

func TestSMTRequiresTwoThreads(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := BuildSMT(cfg, nil); err == nil {
		t.Fatal("expected thread-count error")
	}
}

// TestSMTEngineEquivalence: RunSMT on the event kernel must match the
// lockstep reference (stepAll every cycle) bit for bit, per thread, on
// a heterogeneous pair and on a same-trace pair whose threads contend
// for the same sets.
func TestSMTEngineEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 1000
	cfg.MaxInstrs = 5000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure
	for _, pair := range [][2]string{
		{"605.mcf-1554B", "602.gcc-1850B"},
		{"605.mcf-1554B", "605.mcf-1554B"},
	} {
		t.Run(pair[0]+"+"+pair[1], func(t *testing.T) {
			run := func(noSkip bool) []*Result {
				srcs := smtSources(t, pair[0], pair[1], 7000)
				machines, err := BuildSMT(cfg, srcs)
				if err != nil {
					t.Fatal(err)
				}
				machines[0].noSkip = noSkip
				res, err := runSMT(cfg, machines, srcs)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			event, ref := run(false), run(true)
			for i := range ref {
				if !reflect.DeepEqual(event[i], ref[i]) {
					t.Errorf("thread %d diverged:\nevent: cycles=%d core=%+v\nref:   cycles=%d core=%+v",
						i, event[i].Cycles, event[i].Core, ref[i].Cycles, ref[i].Core)
				}
			}
		})
	}
}
