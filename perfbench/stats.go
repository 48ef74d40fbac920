package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the fewest samples that must rank after a reported
// percentile. A percentile with fewer is decided by a handful of
// samples and moves from run to run, so it is refused rather than
// reported.
const minBeyond = 10

// Quantile is one nearest-rank percentile of a sample together with
// the counts that say how far it can be trusted.
type Quantile struct {
	P      float64 // percentile, in (0, 100]
	Value  float64
	N      int // samples in the distribution
	Beyond int // samples ranked after the percentile
}

// Percentile returns the nearest-rank p-th percentile of xs: the
// sample of rank ceil(p/100 * n) in ascending order, so that at least
// p% of the samples are at or below it. It refuses (returning the
// quantile and an error) any percentile with fewer than minBeyond
// samples ranked after it. xs is not modified.
func Percentile(xs []float64, p float64) (Quantile, error) {
	if p <= 0 || p > 100 {
		return Quantile{}, fmt.Errorf("percentile %g out of range (0, 100]", p)
	}
	n := len(xs)
	if n == 0 {
		return Quantile{P: p}, fmt.Errorf("p%g of an empty sample", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// p*n is exact for the integral percentiles used here, so the
	// division rounds only when the rank is genuinely fractional.
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	q := Quantile{P: p, Value: s[rank-1], N: n, Beyond: n - rank}
	if q.Beyond < minBeyond {
		return q, fmt.Errorf("p%g of %d samples has %d beyond it; needs %d", p, n, q.Beyond, minBeyond)
	}
	return q, nil
}

// median is the plain median of a few repeated measurements of one
// quantity (set-up times, per-repetition wall times). Distributions of
// many samples go through Percentile instead.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fmtSamples lists a few repeated measurements for a report note.
func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 3, 64)
	}
	return strings.Join(parts, " ")
}
