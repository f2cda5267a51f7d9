package main

import "sort"

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the acceptance check of a run set uses. Fewer than two values have
// no spread: all three cut points are the value itself (0 for none).
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
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
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks.
func percentile(values []float64, p float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

// tailPercentile names the highest percentile of n samples that still has
// at least ten samples beyond it; ok is false when even p75 has not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, beyond := range []int{1, 10, 50, 100, 250} { // per mille of the samples
		if n*beyond >= 10*1000 {
			return 100 - float64(beyond)/10, true
		}
	}
	return 0, false
}
