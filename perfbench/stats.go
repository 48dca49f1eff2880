package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-th percentile of
// n sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(float64(n)*p/100)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail is a timing tail: the highest candidate percentile that still
// has at least minBeyond samples above its nearest-rank position.
type tail struct {
	Pct    float64 // the percentile, e.g. 95
	Value  float64 // its nearest-rank value
	Beyond int     // samples ranked above it
	N      int     // sample count
}

// minBeyond is the number of samples a reported tail percentile must
// have beyond it for the figure to mean anything.
const minBeyond = 10

// selectTail picks the reported tail of xs. ok is false when no
// candidate has minBeyond samples beyond it, and the tail is omitted.
func selectTail(xs []float64) (t tail, ok bool) {
	for _, p := range tailPercentiles {
		if beyond := len(xs) - 1 - rankIndex(len(xs), p); len(xs) > 0 && beyond >= minBeyond {
			return tail{Pct: p, Value: percentile(xs, p), Beyond: beyond, N: len(xs)}, true
		}
	}
	return tail{N: len(xs)}, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is one analysis's wall-clock extent.
type interval struct{ start, end time.Time }

// credit counts the analyses done within [lo, hi], each by the share of
// its interval that lies inside the window, so a throughput figure has
// no rounding step of one analysis at either edge.
func credit(ivs []interval, lo, hi time.Time) float64 {
	n := 0.0
	for _, iv := range ivs {
		d := iv.end.Sub(iv.start)
		if d <= 0 {
			continue
		}
		a, b := iv.start, iv.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			n += float64(b.Sub(a)) / float64(d)
		}
	}
	return n
}
