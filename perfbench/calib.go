package main

import (
	"math/rand"
	"sort"
)

// calibRefSeconds is the calibration kernel's CPU time on the host the
// benchmark was defined on (a 2-vCPU Intel Xeon VM, go1.24, in a quiet
// spell). The gated pass timings read in that host's seconds.
const calibRefSeconds = 0.06

// calibration is a fixed CPU and memory workload that shares no code
// with the simulator: sort a copy of 400k pseudo-random keys, then make
// 200k map updates. Run next to each timed pass, it measures how fast
// the host is at that moment. On a shared VM the host's speed drifts
// with neighbours' load by more than any usable bound; the ratio of a
// pass to its calibration drifts about half as much. A change to the
// program cannot move the calibration, so it moves the ratio.
type calibration struct{ keys []int }

func newCalibration() *calibration {
	r := rand.New(rand.NewSource(1))
	keys := make([]int, 400_000)
	for i := range keys {
		keys[i] = r.Int()
	}
	return &calibration{keys: keys}
}

// run returns the kernel's process CPU time in seconds.
func (c *calibration) run() float64 {
	x := append([]int(nil), c.keys...)
	c0 := processCPU()
	sort.Ints(x)
	m := make(map[int]int)
	for i := 0; i < 200_000; i++ {
		m[x[(i*7919)%len(x)]&0xffff] += i
	}
	return processCPU() - c0
}
