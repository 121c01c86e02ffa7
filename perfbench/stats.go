package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read from fewer samples is noise.
const minBeyond = 10

// tailCandidates are the percentiles a tail is read at, highest first.
var tailCandidates = []float64{99.9, 99, 90, 50}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// of n samples.
func beyond(p float64, n int) int {
	return n - rank(p, n)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The small slack keeps p·n/100 from rounding up past an exact rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, and false when even the median
// does not.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// percentile returns the nearest-rank p-th percentile of xs (p in (0,100]);
// xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s))-1, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio is a derived metric printed with both of its bases.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// describe prints the ratio with both of its bases, each named.
func (r ratio) describe(num, den string) string {
	return fmt.Sprintf("%.4g (%g %s / %g %s)", r.Value(), r.Num, num, r.Den, den)
}
