package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"secpref/internal/multicore"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// pinnedJSON holds the output digests of every workload for a range of
// seeds, written by -pin. A seed outside the range is checked by
// cross-engine equality instead.
//
//go:embed pinned.json
var pinnedJSON []byte

// pinFile is the layout of pinned.json.
type pinFile struct {
	EngineVersion string                  `json:"engine_version"`
	Workloads     map[string]pinnedSeries `json:"workloads"`
}

type pinnedSeries struct {
	Config config `json:"config"`
	// Seeds maps a seed to its output digests (output name to hex).
	Seeds map[string]map[string]string `json:"seeds"`
}

func loadPins(raw []byte) (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("pinned digests: %w", err)
	}
	return p, nil
}

// pinsFor returns the pinned digests of one workload and seed, or nil.
func (p pinFile) pinsFor(workload string, seed int64) map[string]string {
	return p.Workloads[workload].Seeds[strconv.FormatInt(seed, 10)]
}

// checker counts outputs and judges them: against pinned digests where
// the seed has them, and always against the first pass, since the
// simulator is deterministic.
type checker struct {
	pinned    map[string]string
	first     map[string]uint64
	counters  map[string]map[string]uint64
	attempted int
	failed    int
	problems  []string
}

func newChecker(pinned map[string]string) *checker {
	return &checker{pinned: pinned, first: map[string]uint64{}, counters: map[string]map[string]uint64{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// pass checks every output of a pass.
func (c *checker) pass(pr *passResult) {
	for _, o := range pr.outputs {
		c.attempted++
		if o.err != nil {
			c.fail("%s: %v", o.name, o.err)
			continue
		}
		got := fmt.Sprintf("%016x", o.digest)
		if c.pinned != nil && c.pinned[o.name] != got {
			c.fail("%s: output digest %s, pinned %q", o.name, got, c.pinned[o.name])
			continue
		}
		if prev, ok := c.first[o.name]; ok && prev != o.digest {
			c.fail("%s: output digest %s differs from the first pass's %016x", o.name, got, prev)
			continue
		}
		c.first[o.name] = o.digest
	}
}

// errorsOnly counts outputs that have no expected digest, failing only
// those that erred.
func (c *checker) errorsOnly(pr *passResult) {
	for _, o := range pr.outputs {
		c.attempted++
		if o.err != nil {
			c.fail("%s: %v", o.name, o.err)
		}
	}
}

// result counts one named check.
func (c *checker) result(name string, err error) {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", name, err)
	}
}

// sameCounters fails when an exact counter set differs from the one
// first recorded under the same label.
func (c *checker) sameCounters(label string, got map[string]uint64) {
	prev, ok := c.counters[label]
	if !ok {
		c.counters[label] = got
		return
	}
	for k, v := range got {
		if prev[k] != v {
			c.fail("%s: deterministic counter %s = %d, earlier run of the same code %d", label, k, v, prev[k])
		}
	}
}

func (c *checker) correct() bool { return c.failed == 0 }

// record is the run's record, with the checker's verdict.
func (c *checker) record(prov provenance, traced bool, res resultLine) record {
	return record{
		Provenance: prov, Trace: traced, Result: res,
		FailedShare: ratio(float64(c.failed), float64(c.attempted)),
		Digests:     hexDigests(c.first), Problems: c.problems,
	}
}

// Recorded scenario digests of cmd/bench (BENCH_history.jsonl).
const (
	singleScenarioDigest    = "f46ca1ea9359064b"
	multicoreScenarioDigest = "8ba482e5c11eef6e"
)

// scenarioChecks reproduces cmd/bench's two recorded scenarios through
// the same public calls and compares their output digests: 50k
// instructions of 602.gcc on the secure system, and four copies of
// 605.mcf on the 4-core secure system.
func scenarioChecks(c *checker) {
	c.result("cmd/bench single-core scenario", safe(func() error {
		tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
		if err != nil {
			return err
		}
		res, err := sim.RunProbed(secureSystem(0, 50_000), trace.NewSource(tr), sim.Probes{})
		if err != nil {
			return err
		}
		return digestIs(hashJSON(res), singleScenarioDigest)
	}))
	c.result("cmd/bench 4-core scenario", safe(func() error {
		mix := make([]trace.Source, 4)
		for i := range mix {
			tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 12_000, Seed: 1})
			if err != nil {
				return err
			}
			mix[i] = trace.NewSource(tr)
		}
		cfg := multicore.DefaultConfig()
		cfg.Single = secureSystem(2000, 10_000)
		res, err := multicore.RunProbed(cfg, mix, multicore.Probes{})
		if err != nil {
			return err
		}
		// The digest was recorded before multicore.Result gained its
		// Interference field, so hash the fields it had then.
		return digestIs(hashJSON(struct {
			PerCore      []*sim.Result
			Cycles       uint64
			FinalDigests []uint64
		}{res.PerCore, res.Cycles, res.FinalDigests}), multicoreScenarioDigest)
	}))
}

func digestIs(got uint64, want string) error {
	if s := fmt.Sprintf("%016x", got); s != want {
		return fmt.Errorf("output digest %s, recorded %s", s, want)
	}
	return nil
}
