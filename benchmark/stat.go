package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (p in (0,100]) of v; 0 when v
// is empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), so spreads computed here equal the ones
// the benchmark contract is checked with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after clamping, as Python does: the end pair extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median; NaN
// with fewer than four values (too few for quartiles to mean anything).
func spread(v []float64) float64 {
	if len(v) < 4 {
		return math.NaN()
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / q2
}
