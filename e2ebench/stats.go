package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// samplesBeyond is how many of n samples lie above the nearest-rank p-th
// percentile. A percentile is reported only with at least ten beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chunkSize is the fewest requests a chunk holds, so that each chunk's
// p99 has ten samples beyond it.
const chunkSize = 1000

// chunkFigures splits a phase's requests, in completion order, into
// consecutive chunks of at least chunkSize (one chunk when there are
// fewer) and returns the median over chunks of each chunk's completion
// rate (successful requests per second of the chunk's span) and its p50,
// p90 and p99 latency in ms, plus the fewest samples any chunk has
// beyond its p99. Medians over chunks keep a brief stall in one part of
// a run from setting the run's figures.
func chunkFigures(start time.Time, samples []sample) (f figures) {
	if len(samples) == 0 {
		nan := math.NaN()
		return figures{rps: nan, p50: nan, p90: nan, p99: nan}
	}
	byDone := append([]sample(nil), samples...)
	sort.Slice(byDone, func(i, j int) bool { return byDone[i].done.Before(byDone[j].done) })
	chunks := max(1, len(byDone)/chunkSize)
	f.p99Beyond = len(byDone)
	var rates, p50s, p90s, p99s []float64
	from := start
	for c := 0; c < chunks; c++ {
		part := byDone[c*len(byDone)/chunks : (c+1)*len(byDone)/chunks]
		lat := make([]float64, len(part))
		ok := 0
		for i, s := range part {
			lat[i] = ms(s.lat)
			if s.err == nil {
				ok++
			}
		}
		to := part[len(part)-1].done
		rates = append(rates, float64(ok)/to.Sub(from).Seconds())
		p50s = append(p50s, percentile(lat, 50))
		p90s = append(p90s, percentile(lat, 90))
		p99s = append(p99s, percentile(lat, 99))
		f.p99Beyond = min(f.p99Beyond, samplesBeyond(len(part), 99))
		from = to
	}
	f.rps, f.p50, f.p90, f.p99 = midMedian(rates), midMedian(p50s), midMedian(p90s), midMedian(p99s)
	return f
}

// figures are a phase's request rate and latency percentiles (ms).
type figures struct {
	rps, p50, p90, p99 float64
	p99Beyond          int // fewest samples beyond a chunk's p99
}

// midMedian is the median of xs, averaging the middle two of an even
// count.
func midMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
