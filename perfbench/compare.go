package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares the untraced records of two runs of the
// benchmark, workload by workload, against each metric's bound. It
// refuses records from more than one host fingerprint: wall time from
// different hosts does not compare.
func runCompare(spec, boundsPath string, stdout, stderr io.Writer) int {
	basePath, changePath, ok := strings.Cut(spec, ",")
	if !ok {
		fmt.Fprintln(stderr, "perfbench: -compare wants base.jsonl,change.jsonl")
		return 2
	}
	sides := make([][]record, 2)
	fps := map[string]bool{}
	for i, path := range []string{basePath, changePath} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		for _, r := range recs {
			if !r.Trace {
				sides[i] = append(sides[i], r)
				fps[r.Provenance.Fingerprint] = true
			}
		}
	}
	if len(fps) > 1 {
		fmt.Fprintf(stderr, "perfbench: refusing to compare records from %d host fingerprints %v\n", len(fps), sortedKeys(fps))
		return 2
	}
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", boundsPath, err)
		return 2
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Provenance.Workload] = append(m[r.Provenance.Workload], r)
		}
		return m
	}
	base, change := byWorkload(sides[0]), byWorkload(sides[1])
	regressed := false
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %9s  %s\n", "workload", "metric", "base median", "change median", "change", "verdict")
	for _, w := range sortedKeys(base) {
		if change[w] == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			bv, cv := metricValues(base[w], m.Name), metricValues(change[w], m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			worse := ratio(cm-bm, bm)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSED (bound %.0f%%)", 100*m.Bound)
				regressed = true
			case spread(bv) > m.Bound || spread(cv) > m.Bound:
				verdict = "unresolved: spread wider than the bound"
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.6g %14.6g %+8.2f%%  %s (n=%d/%d)\n", w, m.Name, bm, cm, 100*ratio(cm-bm, bm), verdict, len(bv), len(cv))
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], q[1])
}

// readRecords loads records.jsonl lines, skipping blank ones.
func readRecords(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
