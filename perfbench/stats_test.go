package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must not assume order
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelectTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		ok     bool
		pct    float64
		beyond int
	}{
		{15, false, 0, 0}, // p75 leaves 3 beyond: no tail
		{40, true, 75, 10},
		{100, true, 90, 10},
		{199, true, 90, 19}, // p95 would leave 9
		{200, true, 95, 10},
		{1000, true, 99, 10},
		{20000, true, 99.9, 20},
	} {
		tl, ok := selectTail(seq(c.n))
		if ok != c.ok || tl.N != c.n {
			t.Errorf("n=%d: ok=%v N=%d, want ok=%v", c.n, ok, tl.N, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if tl.Pct != c.pct || tl.Beyond != c.beyond {
			t.Errorf("n=%d: p%g with %d beyond, want p%g with %d", c.n, tl.Pct, tl.Beyond, c.pct, c.beyond)
		}
		if want := percentile(seq(c.n), tl.Pct); tl.Value != want {
			t.Errorf("n=%d: value %g, want the p%g sample %g", c.n, tl.Value, tl.Pct, want)
		}
	}
}

func TestCreditCountsShareInsideWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	ivs := []interval{
		{at(-1), at(1)}, // half inside
		{at(1), at(3)},  // wholly inside
		{at(9), at(13)}, // a quarter inside
		{at(11), at(12)},
	}
	if got := credit(ivs, at(0), at(10)); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("credit = %g, want 1.75", got)
	}
}
