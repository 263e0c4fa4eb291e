package sim

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// BenchmarkComponentEngineVisit measures the kernel's dispatch: one op
// is one visited cycle of a secure TSB+SUF machine on a fixed
// 20k-instruction 602.gcc trace, taken at the calendar's earliest wake
// as the run loop takes it (gap skip, per-rank tick or integrate,
// re-arm). The machine is rebuilt, off the clock, whenever its trace
// runs out. ns/op and allocs/op are therefore per visited cycle, and
// include the components' own Tick work.
func BenchmarkComponentEngineVisit(b *testing.B) {
	const n = 20_000
	cfg := DefaultConfig()
	cfg.Secure, cfg.SUF = true, true
	cfg.Prefetcher, cfg.Mode = "berti", ModeTimelySecure
	cfg.WarmupInstrs, cfg.MaxInstrs = 0, n
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fresh := func() *Machine {
		m, err := NewMachine(cfg, trace.NewSource(tr))
		if err != nil {
			b.Fatal(err)
		}
		m.prime()
		return m
	}
	m := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := m.evq.Next()
		if m.core.Done() || next == mem.NoEvent {
			b.StopTimer()
			m = fresh()
			next = m.evq.Next()
			b.StartTimer()
		}
		m.visit(next)
	}
}
