package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"secpref/internal/observatory"
	"secpref/internal/sim"
)

// host identifies the machine a timing was taken on. Timings from
// different hosts are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// fingerprint is a short stable digest of the host.
func (h host) fingerprint() string {
	return fmt.Sprintf("%016x", observatory.HashBytes([]byte(fmt.Sprintf("%d|%d|%s|%s", h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion))))
}

// provenance is stamped on every record the benchmark writes.
type provenance struct {
	Host          host   `json:"host"`
	Fingerprint   string `json:"host_fingerprint"`
	EngineVersion string `json:"engine_version"`
	Revision      string `json:"vcs_revision"`
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Config        config `json:"config"`
}

func currentHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func newProvenance(workload string, seed int64, cfg config) provenance {
	h := currentHost()
	return provenance{
		Host:          h,
		Fingerprint:   h.fingerprint(),
		EngineVersion: sim.EngineVersion,
		Revision:      revision(),
		Workload:      workload,
		Seed:          seed,
		Config:        cfg,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown"
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from ("+dirty"
// when the tree had local changes), or "unknown" when built outside a
// repository.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
