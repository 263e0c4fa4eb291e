package sim

import (
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

func smokeTrace(t *testing.T, name string, n int) trace.Source {
	t.Helper()
	tr, err := workload.Get(name, workload.Params{Instrs: n, Seed: 1})
	if err != nil {
		t.Fatalf("workload.Get(%s): %v", name, err)
	}
	return trace.NewSource(tr)
}

// TestSmokeAllConfigs runs each (trace, config) row to its instruction
// target: no error, no wedge, a plausible IPC. Rows without a trace run
// 605.mcf-1554B. The tail sweeps a streaming and a pointer-chasing
// trace (603.bwa, 605.mcf) under the paper-shape configs, and Bingo on
// a stencil, a stream and a pointer chase.
func TestSmokeAllConfigs(t *testing.T) {
	traceN := 20_000
	type row struct {
		name  string
		trace string
		mut   func(*Config)
	}
	rows := []row{
		{name: "nonsecure-nopref", mut: func(c *Config) {}},
		{name: "secure-nopref", mut: func(c *Config) { c.Secure = true }},
		{name: "secure-suf-nopref", mut: func(c *Config) { c.Secure = true; c.SUF = true }},
		{name: "nonsecure-berti", mut: func(c *Config) { c.Prefetcher = "berti" }},
		{name: "secure-berti-onaccess", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "berti" }},
		{name: "secure-berti-oncommit", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeOnCommit }},
		{name: "secure-tsb-suf", mut: func(c *Config) {
			c.Secure = true
			c.SUF = true
			c.Prefetcher = "berti"
			c.Mode = ModeTimelySecure
		}},
		{name: "secure-ipstride-ts", mut: func(c *Config) {
			c.Secure = true
			c.Prefetcher = "ip-stride"
			c.Mode = ModeTimelySecure
		}},
		{name: "secure-ipcp-oncommit-classify", mut: func(c *Config) {
			c.Secure = true
			c.Prefetcher = "ipcp"
			c.Mode = ModeOnCommit
			c.Classify = true
		}},
		{name: "secure-bingo-oncommit", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "bingo"; c.Mode = ModeOnCommit }},
		{name: "secure-spp-oncommit", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "spp-ppf"; c.Mode = ModeOnCommit }},
	}
	shapes := []row{
		{name: "nonsecure-nopref", mut: func(c *Config) {}},
		{name: "secure-nopref", mut: func(c *Config) { c.Secure = true }},
		{name: "nonsecure-berti", mut: func(c *Config) { c.Prefetcher = "berti" }},
		{name: "secure-berti-onaccess", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "berti" }},
		{name: "secure-berti-oncommit", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeOnCommit }},
		{name: "secure-tsb", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeTimelySecure }},
		{name: "nonsecure-ipstride", mut: func(c *Config) { c.Prefetcher = "ip-stride" }},
		{name: "secure-ipstride-oncommit", mut: func(c *Config) { c.Secure = true; c.Prefetcher = "ip-stride"; c.Mode = ModeOnCommit }},
	}
	for _, tr := range []string{"603.bwa-2931B", "605.mcf-1554B"} {
		for _, sh := range shapes {
			rows = append(rows, row{name: sh.name + "@" + tr, trace: tr, mut: sh.mut})
		}
	}
	for _, tr := range []string{"654.roms-1007B", "619.lbm-2676B", "605.mcf-1554B"} {
		rows = append(rows, row{name: "nonsecure-bingo@" + tr, trace: tr, mut: func(c *Config) { c.Prefetcher = "bingo" }})
	}
	for _, tc := range rows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.trace == "" {
				tc.trace = "605.mcf-1554B"
			}
			cfg := DefaultConfig()
			cfg.WarmupInstrs = 2000
			cfg.MaxInstrs = traceN
			tc.mut(&cfg)
			res, err := Run(cfg, smokeTrace(t, tc.trace, traceN))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Instructions < uint64(traceN) || res.Cycles == 0 {
				t.Fatalf("run stopped short of its target: %d instructions in %d cycles", res.Instructions, res.Cycles)
			}
			if res.IPC <= 0 || res.IPC > 6 {
				t.Errorf("implausible IPC %.3f", res.IPC)
			}
			t.Logf("%s on %s: IPC=%.3f cycles=%d L1D-miss-lat=%.1f", cfg.Label(), tc.trace, res.IPC, res.Cycles, res.LoadMissLatency())
		})
	}
}
