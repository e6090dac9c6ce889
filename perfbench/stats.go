package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile needs above it:
// with fewer, one outlier more or less moves the figure, so the percentile
// is refused instead of reported.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of samples by the
// nearest-rank rule: the value at rank ceil(p*n) of the sorted samples. It
// refuses, with an error, when fewer than minBeyond samples rank above it.
// samples is sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := nearestRank(n, p)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// nearestRank is ceil(p*n), at least 1, computed without float rounding
// surprises at exact multiples (p*n for p=0.99, n=1000 is 990.0000000001).
func nearestRank(n int, p float64) int {
	scaled := int64(p*1e6 + 0.5)
	r := int((int64(n)*scaled + 1e6 - 1) / 1e6)
	if r < 1 {
		r = 1
	}
	return r
}

// durations converts latencies to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is num/den, and 0 when the base is empty: a layer that did no work
// in the run reads 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the three cut points of data as Python's
// statistics.quantiles(data, n=4) computes them (the default "exclusive"
// method), so the steadiness check here and elsewhere agree to the digit.
func quartiles(data []float64) (q1, q2, q3 float64, err error) {
	ld := len(data)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", ld)
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// median of a sample (the middle value, or the mean of the two middle
// values), as Python's statistics.median.
func median(data []float64) float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
