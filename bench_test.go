// Benchmarks regenerating every table and figure of the paper (one
// benchmark per experiment; see DESIGN.md for the index), plus
// microbenchmarks of the simulator core.
//
// The figure benchmarks share a memoizing runner, so a full
// `go test -bench=.` sweep simulates each (trace, configuration) pair
// once; the first benchmark to need a result pays for it. Each
// benchmark logs the regenerated table with -v.
package secpref_test

import (
	"sync"
	"testing"

	"secpref"
	"secpref/internal/experiments"
	"secpref/internal/multicore"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// benchOpts returns a campaign small enough for benchmarking but large
// enough to exercise every subsystem.
func runner() *experiments.Runner {
	benchOnce.Do(func() {
		opts := experiments.QuickOptions()
		benchRunner = experiments.NewRunner(opts)
	})
	return benchRunner
}

// benchExperiment is the common body: regenerate the experiment each
// iteration (memoized after the first) and log the table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := runner()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig01(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig03(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig04(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig05(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig06(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkSUFAcc(b *testing.B) { benchExperiment(b, "suf-accuracy") }

// BenchmarkSimulatorThroughput measures simulated instructions per
// second of the single-core scenario (TestSingleScenario): the full
// secure system with TSB+SUF, the heaviest single-core configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg, tr := singleScenario(b)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, trace.NewSource(tr))
		if err != nil {
			b.Fatal(err)
		}
		total += int(res.Instructions)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkMulticoreThroughput measures simulated instructions per
// second, summed over cores, of the 4-core scenario
// (TestMulticoreScenario) on the serial lockstep reference, the
// barrier-parallel engine, and the parallel engine with the observed
// flavour's observers attached.
func BenchmarkMulticoreThroughput(b *testing.B) {
	cfg, trs := multicoreScenario(b)
	for _, fl := range []struct {
		name   string
		probes func() multicore.Probes
	}{
		{"lockstep", func() multicore.Probes { return multicore.Probes{ReferenceEngine: true} }},
		{"parallel", func() multicore.Probes { return multicore.Probes{} }},
		{"observed", func() multicore.Probes { return mcObservedProbes(cfg.Cores) }},
	} {
		b.Run(fl.name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := multicore.RunProbed(cfg, sources(trs), fl.probes())
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range res.PerCore {
					total += int(c.Instructions)
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	g, err := workload.ByName("605.mcf-1554B")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = g.Gen(workload.Params{Instrs: 20_000, Seed: int64(i)})
	}
}

// BenchmarkAttack measures the end-to-end Spectre prefetch-leak
// scenario (prime, transient execute, squash, probe).
func BenchmarkAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, err := secpref.SpectrePrefetchLeak(secpref.AttackConfig{Secure: true, Prefetcher: "ip-stride"}, i%16)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Leaked {
			b.Fatal("expected leak")
		}
	}
}
