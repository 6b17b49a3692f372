package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs with linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to be more than one outlier's position.
const tailSamples = 10

// tailPercentile returns the highest whole percentile, at most want, that
// still has tailSamples samples beyond it in a sample of n; 50 when even the
// median has fewer (the tail is then not resolved at all).
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	p := math.Floor(100 * (1 - float64(tailSamples)/float64(n)))
	return math.Max(50, math.Min(want, p))
}
