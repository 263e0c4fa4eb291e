package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
)

// fig15Variants are the six systems of Figure 15, in legend order.
func fig15Variants() []cfgVariant {
	return []cfgVariant{
		baseSecure(),
		onAccessNonSecure("berti"),
		onCommitSecure("berti"),
		onCommitSecureSUF("berti"),
		timelySecure("berti"),    // TSB
		timelySecureSUF("berti"), // TSB+SUF
	}
}

// Fig15 reproduces Figure 15: weighted speedup of random 4-core mixes
// under the six Berti-centric configurations, normalized to the
// non-secure no-prefetch multi-core system, sorted by the TSB+SUF
// column as the paper sorts by speedup.
func (r *Runner) Fig15() (*Table, error) {
	t := &Table{
		ID:    "fig15",
		Title: "4-core mix speedup (weighted, normalized to non-secure no-prefetch)",
		Header: []string{"mix", "no-pref/secure", "berti-acc/non-sec", "berti-com/secure",
			"berti-com/secure+SUF", "TSB", "TSB+SUF"},
	}
	mixes := r.randomMixes()
	variants := fig15Variants()

	type row struct {
		name string
		vals []float64
	}
	rows := make([]row, len(mixes))
	var wg sync.WaitGroup
	errs := make([]error, len(mixes))
	for i, mix := range mixes {
		wg.Add(1)
		go func(i int, mix []string) {
			defer wg.Done()
			base, err := r.runMix(baseNonSecure(), mix, false)
			if err != nil {
				errs[i] = err
				return
			}
			vals := make([]float64, len(variants))
			for j, v := range variants {
				res, err := r.runMix(v, mix, false)
				if err != nil {
					errs[i] = err
					return
				}
				vals[j] = sumIPCRatio(res, base)
			}
			rows[i] = row{name: fmt.Sprintf("mix%02d", i), vals: vals}
		}(i, mix)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Sort by the last (TSB+SUF) column, as the paper sorts mixes by
	// increasing speedup.
	sort.Slice(rows, func(a, b int) bool {
		return rows[a].vals[len(variants)-1] < rows[b].vals[len(variants)-1]
	})
	sums := make([]float64, len(variants))
	for _, rw := range rows {
		cells := []string{rw.name}
		for j, v := range rw.vals {
			cells = append(cells, f3(v))
			sums[j] += v
		}
		t.AddRow(cells...)
	}
	avg := []string{"mean"}
	for _, s := range sums {
		avg = append(avg, f3(s/float64(len(rows))))
	}
	t.AddRow(avg...)
	t.Notes = append(t.Notes,
		"paper: GhostMinion costs 16.8% at 4 cores without prefetching; TSB+SUF beats on-commit Berti by 23% and the non-secure baseline by 16.1%")
	return t, nil
}

// runMix simulates one multicore mix under variant v, one core per
// trace name. consolidation selects the interference study's setup:
// the interference observatory attached and the shared LLC shrunk to a
// 32 KiB bank per core, because campaign instruction budgets are
// ~1000x smaller than the paper's and a full-size 2 MB bank would
// never evict within them, leaving the attribution matrix vacuously
// empty.
func (r *Runner) runMix(v cfgVariant, names []string, consolidation bool) (*multicore.Result, error) {
	cfg := multicore.Config{Single: v.config(r.opts), Cores: len(names)}
	// Multi-core runs use a reduced per-core budget so a campaign of
	// many mixes stays tractable.
	cfg.Single.MaxInstrs = r.opts.Instrs / 2
	cfg.Single.WarmupInstrs = r.opts.Warmup / 2
	probes := multicore.Probes{Interference: consolidation}
	if consolidation {
		cfg.Single.LLC.SizeKiB = 32
	}
	mix, err := r.mixSources(names)
	if err != nil {
		return nil, err
	}
	if r.opts.Profile != nil {
		probes.Profile = observatory.NewProfile()
	}
	res, err := account(r.opts.Campaign, func() (*multicore.Result, error) {
		return multicore.RunProbed(cfg, mix, probes)
	}, mixWork)
	if err != nil {
		return nil, err
	}
	if probes.Profile != nil {
		r.opts.Profile.Add(probes.Profile)
	}
	return res, nil
}

// mixWork reads a multicore run's campaign work: instructions summed
// over every core, and the run's simulated cycles.
func mixWork(res *multicore.Result) (instrs, cycles uint64) {
	for _, c := range res.PerCore {
		instrs += c.Instructions
	}
	return instrs, res.Cycles
}

// sumIPCRatio computes Σ_i IPC_i(cfg)/IPC_i(base) — with identical
// per-core traces in numerator and denominator this equals the weighted
// speedup normalized to the baseline configuration.
func sumIPCRatio(res, base *multicore.Result) float64 {
	s := 0.0
	n := 0
	for i := range res.PerCore {
		if base.PerCore[i].IPC > 0 {
			s += res.PerCore[i].IPC / base.PerCore[i].IPC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// randomMixes draws the paper-style random heterogeneous 4-trace mixes
// from the runner's trace set.
func (r *Runner) randomMixes() [][]string {
	rng := rand.New(rand.NewSource(r.opts.Seed * 7919))
	mixes := make([][]string, r.opts.Mixes)
	for i := range mixes {
		mix := make([]string, 4)
		for j := range mix {
			mix[j] = r.opts.Traces[rng.Intn(len(r.opts.Traces))]
		}
		mixes[i] = mix
	}
	return mixes
}

// Fig15Variant labels, exported for the CLI legend.
func Fig15Labels() []string {
	vs := fig15Variants()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.label
	}
	return out
}
