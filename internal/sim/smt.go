package sim

import (
	"fmt"

	"secpref/internal/cache"
	seccore "secpref/internal/core"
	"secpref/internal/cpu"
	"secpref/internal/dram"
	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/tlb"
	"secpref/internal/trace"
)

// BuildSMT assembles a 2-way SMT core: two hardware threads with
// private GMs (speculative state is per-context) sharing one L1D, L2,
// LLC and DRAM channel — the §VII-B configuration where cross-thread
// evictions can invalidate SUF's recorded hit levels. Each thread runs
// its own trace in a disjoint address space.
//
// The first machine's engine runs the whole core: its table is core0,
// GM0, core1, GM1, L1D, L2, LLC, DRAM, the order a lockstep SMT cycle
// ticks them in.
func BuildSMT(cfg Config, threads []trace.Source) ([]*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(threads) != 2 {
		return nil, fmt.Errorf("sim: SMT model is 2-way, got %d threads", len(threads))
	}
	channel := dram.New(cfg.DRAM)
	llc := cache.New(cache.LLCConfig(1), channel)
	l2 := cache.New(cfg.L2, llc)
	l1d := cache.New(cfg.L1D, l2)
	// One goroutine steps both threads and the shared levels: a single
	// request pool serves the whole SMT system.
	pool := &mem.RequestPool{}
	channel.SetPool(pool)
	llc.SetPool(pool)
	l2.SetPool(pool)
	l1d.SetPool(pool)

	var machines []*Machine
	for i, src := range threads {
		src = trace.Repeat(trace.Offset(src, mem.Addr(i)<<40), 1<<62)
		m := &Machine{cfg: cfg, pool: pool}
		m.mem = channel
		m.llc = llc
		m.l2 = l2
		m.l1d = l1d
		var loadPort cpu.LoadPort = l1dLoadPort{l1d}
		if cfg.Secure {
			var filter ghostminion.Filter = ghostminion.FullUpdate{}
			if cfg.SUF {
				m.suf = new(seccore.SUF)
				filter = m.suf
			}
			m.gm = ghostminion.New(cfg.GM, l1d, filter)
			loadPort = m.gm
		}
		m.core = cpu.New(cfg.Core, src, loadPort, l1dStorePort{l1d})
		if !cfg.DisableTLB {
			m.tlbs = tlb.New(cfg.TLB)
			m.core.TLB = m.tlbs
		}
		if i == 0 {
			// The SMT core has ONE prefetcher at the shared L1D; thread
			// 0 owns it and its access-stream hooks observe both
			// threads' traffic.
			if err := m.buildPrefetcher(); err != nil {
				return nil, err
			}
		} else if len(machines) > 0 {
			// Later threads share the engine but keep a private X-LQ
			// (it is part of the per-thread load queue).
			first := machines[0]
			m.pf = first.pf
			m.bertiPF = first.bertiPF
			m.monitor = first.monitor
			m.classifier = first.classifier
			if first.xlq != nil {
				m.xlq = &seccore.XLQ{}
			}
		}
		m.core.SetPool(pool)
		if m.gm != nil {
			m.gm.SetPool(pool)
		}
		m.wireCommit()
		machines = append(machines, m)
	}
	e := &machines[0].engine
	for _, m := range machines {
		e.addThread(m.core, m.gm)
	}
	e.add(l1d, profL1D)
	e.add(l2, profL2)
	e.add(llc, profLLC)
	e.add(channel, profDRAM)
	e.reprimeAll()
	return machines, nil
}

// RunSMT simulates a 2-thread SMT pair until both threads retire the
// configured instruction budget, returning per-thread results.
func RunSMT(cfg Config, threads []trace.Source) ([]*Result, error) {
	machines, err := BuildSMT(cfg, threads)
	if err != nil {
		return nil, err
	}
	return runSMT(cfg, machines, threads)
}

// runSMT runs a built SMT pair on the first machine's engine.
func runSMT(cfg Config, machines []*Machine, threads []trace.Source) ([]*Result, error) {
	e := &machines[0].engine
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = mem.Cycle(2000 * (cfg.WarmupInstrs + cfg.MaxInstrs))
	}
	runTo := func(n uint64) error {
		e.resetProgress()
		return e.run(span{to: mem.NoEvent, target: n, budget: maxCycles, wedge: true})
	}
	if cfg.WarmupInstrs > 0 {
		if err := runTo(uint64(cfg.WarmupInstrs)); err != nil {
			return nil, err
		}
		for _, m := range machines {
			m.resetStats()
		}
	}
	start := e.now
	if err := runTo(uint64(cfg.MaxInstrs)); err != nil {
		return nil, err
	}
	var out []*Result
	for i, m := range machines {
		out = append(out, m.result(threads[i].Name(), e.now-start))
	}
	return out, nil
}
