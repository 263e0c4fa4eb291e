package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeSample is a snapshot of the process's cumulative costs.
type runtimeSample struct {
	mallocs, allocBytes uint64
	cpu                 float64 // process user+system seconds
	gcCPU               float64 // the Go runtime's estimate of GC CPU seconds
}

// runtimeDelta is what a pass cost the process.
type runtimeDelta struct {
	mallocs, allocBytes uint64
	cpu, gcCPU          float64
}

var gcMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcMetric)
	s := runtimeSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, cpu: processCPU()}
	if gcMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcMetric[0].Value.Float64()
	}
	return s
}

func (a runtimeSample) sub(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		cpu:        a.cpu - b.cpu,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark in MB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// passPeakRSSMB runs pass from a heap whose free pages have been
// returned to the OS and returns the resident-set high-water mark the
// pass reached, in MB. Linux resets the mark (VmHWM) when "5" is
// written to /proc/self/clear_refs. Starting every sample from the same
// resident set keeps the background scavenger and earlier passes'
// garbage out of the figure; the whole-process mark moved by 4 MB on
// mix4 from one run to the next.
func passPeakRSSMB(pass func()) (float64, error) {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("reset the RSS high-water mark: %w", err)
	}
	pass()
	return vmHWMMB()
}

// vmHWMMB reads the resident-set high-water mark from
// /proc/self/status (reported in kB) in MB.
func vmHWMMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timedPass runs one pass of b after a collection, so passes start from
// the same heap state, and records its wall and CPU time and runtime
// costs.
func timedPass(b bench, pc passConfig) *passResult {
	runtime.GC()
	before := sampleRuntime()
	t0 := time.Now()
	pr := b.pass(pc)
	pr.seconds = time.Since(t0).Seconds()
	pr.cpuSeconds = processCPU() - before.cpu
	// The runtime's CPU-class counters advance only at a collection.
	runtime.GC()
	pr.rt = sampleRuntime().sub(before)
	return pr
}
