package main

import (
	"sort"

	"ncast/internal/obs"
)

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) does (the "exclusive"
// method), because that is what the acceptance driver computes run-to-run
// spread with; using another interpolation here would make the numbers in
// the README's calibration table disagree with the driver's. One sample
// is its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// percentileLadder lists the percentiles a tail metric may be reported
// at, ascending.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile applies the reporting rule "the highest percentile
// that still has at least ten samples beyond it": with n samples, p is
// supported when n*(1-p/100) >= 10. It never goes above want, and falls
// back to the median when even p75 is unsupported.
func supportedPercentile(n int, want float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if p > want {
			break
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // the slack absorbs 100-99.9 not being exactly 0.1
			best = p
		}
	}
	return best
}

// tail reports the want-th percentile of samples under the support rule,
// together with the percentile actually used.
func tail(samples []float64, want float64) (value, used float64) {
	used = supportedPercentile(len(samples), want)
	return obs.Quantile(samples, used/100), used
}
