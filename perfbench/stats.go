package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for even lengths), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles a timing tail may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tail picks the highest percentile in tailPercentiles that has at
// least minBeyond samples above it (nearest-rank definition) and
// returns it with its value. ok is false when even the median has
// fewer than minBeyond samples above it.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps float rounding of p*n/100 from moving the
		// rank past an exact integer.
		i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
		if i < 0 {
			i = 0
		}
		if i < n && n-1-i >= minBeyond {
			return p, s[i], true
		}
	}
	return 0, 0, false
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the acceptance arithmetic.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	if n < 2 {
		if n == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perKinstr scales a count to per thousand instructions.
func perKinstr(count, instrs uint64) float64 {
	return ratio(float64(count)*1000, float64(instrs))
}
