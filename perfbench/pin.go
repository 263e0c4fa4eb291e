package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"secpref/internal/sim"
)

// runPin computes every workload's output digests for each seed of
// lo-hi and writes them in pinned.json's layout. A seed is pinned only
// after its outputs pass the cross-engine check and repeat across two
// passes, so a pin never records an output the reference engine
// disagrees with.
func runPin(span, path string, o options) int {
	lo, hi, err := parseSeedRange(span)
	if err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 2
	}
	pf := pinFile{EngineVersion: sim.EngineVersion, Workloads: map[string]pinnedSeries{}}
	for _, def := range workloads {
		b := def.make()
		series := pinnedSeries{Config: b.config(), Seeds: map[string]map[string]string{}}
		for seed := lo; seed <= hi; seed++ {
			c := newChecker(nil)
			if _, err := b.setup(seed, nil); err != nil {
				fmt.Fprintf(o.stderr, "perfbench: %s seed %d: %v\n", def.name, seed, err)
				return 1
			}
			c.pass(b.pass(passConfig{}))
			c.pass(b.pass(passConfig{}))
			c.result(b.crossEngine())
			if !c.correct() {
				fmt.Fprintf(o.stderr, "perfbench: %s seed %d: %s\n", def.name, seed, strings.Join(c.problems, "; "))
				return 1
			}
			series.Seeds[strconv.FormatInt(seed, 10)] = hexDigests(c.first)
			fmt.Fprintf(o.stderr, "pinned %s seed %d\n", def.name, seed)
		}
		pf.Workloads[def.name] = series
	}
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(pf)
	}
	if path == "" {
		if err := write(o.stdout); err != nil {
			fmt.Fprintln(o.stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err := writeFile(path, write); err != nil {
		fmt.Fprintln(o.stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseSeedRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseInt(a, 10, 64); err == nil {
		hi, err = strconv.ParseInt(b, 10, 64)
	}
	if err != nil || hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q (want lo-hi)", s)
	}
	return lo, hi, nil
}
