package main

import (
	"math"
	"slices"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a spread
// computed here is the number the driver computes from the same values.
// Fewer than two values have no spread: all three are the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4) // outside 0..4 at the ends: it extrapolates, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise figure every bound is sized against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of the pooled
// samples by nearest rank. ok is false when fewer than ten samples lie
// beyond it — the tail is then too thin to report.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := sorted(samples)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9)) // 99.9 % of 1000 is 999, not 999.0000000000001
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// worseBy is the share of base by which cur is worse, given the metric's
// direction; negative when cur is better.
func worseBy(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// withinBound reports whether cur is no worse than base by more than bound.
func withinBound(better string, base, cur, bound float64) bool {
	return worseBy(better, base, cur) <= bound
}

// fitPlane is the least-squares plane y = a + b1·x1 + b2·x2, solved from
// the normal equations on centred data.
func fitPlane(x1, x2, ys []float64) (a, b1, b2 float64) {
	n := float64(len(ys))
	if n == 0 {
		return 0, 0, 0
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / n
	}
	m1, m2, my := mean(x1), mean(x2), mean(ys)
	var s11, s22, s12, s1y, s2y float64
	for i := range ys {
		d1, d2, dy := x1[i]-m1, x2[i]-m2, ys[i]-my
		s11 += d1 * d1
		s22 += d2 * d2
		s12 += d1 * d2
		s1y += d1 * dy
		s2y += d2 * dy
	}
	det := s11*s22 - s12*s12
	if det == 0 {
		return my, 0, 0
	}
	b1 = (s1y*s22 - s2y*s12) / det
	b2 = (s2y*s11 - s1y*s12) / det
	return my - b1*m1 - b2*m2, b1, b2
}
