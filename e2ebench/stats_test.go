package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 50, 2}, // even count: the lower middle
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{4, 1, 3, 2}, 1, 1},
		{[]float64{5, 5, 5}, 99, 5},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 99, 0},
		{1, 50, 0},
		{1000, 99, 10}, // the smallest run whose p99 has ten beyond it
		{999, 99, 9},
		{100, 90, 10},
		{99, 90, 9},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}
