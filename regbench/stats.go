package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4) — the method
// the benchmark's acceptance check uses — so spreads computed here and there
// agree. One sample is its own quartiles; no samples give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// relIQR is the interquartile range as a share of the median: the spread
// measure BENCHMARK.json's bounds are calibrated against.
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// mannWhitney is the two-sided Mann-Whitney U test of whether a and b come
// from the same distribution: the U statistic of a and the p-value from the
// normal approximation with tie correction and continuity correction (the
// asymptotic form of scipy.stats.mannwhitneyu). With fewer than a handful of
// samples per side the approximation is coarse, but it never claims more
// confidence than the ranks support.
func mannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	slices.SortFunc(all, func(x, y obs) int {
		switch {
		case x.v < y.v:
			return -1
		case x.v > y.v:
			return 1
		}
		return 0
	})
	// Average ranks over tie groups, accumulating a's rank sum and the
	// tie-correction term Σ(t³ − t).
	var rankSumA, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // ranks i+1..j, averaged
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankSumA += rank
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	u = rankSumA - fn1*(fn1+1)/2
	mean := fn1 * fn2 / 2
	variance := fn1 * fn2 / 12 * ((n + 1) - ties/(n*(n-1)))
	if variance <= 0 {
		return u, 1 // every observation tied: no evidence either way
	}
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	return u, math.Erfc(z / math.Sqrt2)
}
