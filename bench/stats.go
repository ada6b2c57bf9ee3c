package main

import "slices"

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// percentile reads the p-th percentile (0..100) off an ascending
// slice by linear interpolation between closest ranks.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(asc)-1)
	lo := int(pos)
	if lo+1 >= len(asc) {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo]*(1-frac) + asc[lo+1]*frac
}

// median returns the middle of v (mean of the two middles when even).
func median(v []float64) float64 {
	return percentile(sorted(v), 50)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// that is the rule the acceptance check applies to sets of runs.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
