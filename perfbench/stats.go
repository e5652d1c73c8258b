package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a latency percentile is reported only
// when at least this many samples lie beyond it, so the tail it names is a
// measurement and not one unlucky operation.
const minBeyond = 10

// samplesBeyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile (rank ceil(p*n)).
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// minSamples returns the smallest sample count for which the p-th
// percentile has minBeyond samples beyond it.
func minSamples(p float64) int {
	n := minBeyond
	for samplesBeyond(n, p) < minBeyond {
		n++
	}
	return n
}

func rank(n int, p float64) int {
	// The epsilon keeps p*n from landing just above an integer through
	// floating-point error (0.9*100 = 90.00000000000001).
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// latencies collects per-operation latencies. An operation that failed or
// was refused never met any latency limit, so it enters the distribution as
// +Inf: failures push every percentile up instead of vanishing from it.
type latencies struct {
	ok     []float64
	failed int
}

func (l *latencies) add(ms float64) { l.ok = append(l.ok, ms) }
func (l *latencies) fail()          { l.failed++ }
func (l *latencies) n() int         { return len(l.ok) + l.failed }

// percentile returns the nearest-rank p-th percentile, or an error when the
// percentile rule does not hold for the sample count.
func (l *latencies) percentile(p float64) (float64, error) {
	n := l.n()
	if got := samplesBeyond(n, p); got < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, got, minBeyond)
	}
	sorted := append([]float64(nil), l.ok...)
	sort.Float64s(sorted)
	k := rank(n, p)
	if k > len(sorted) {
		return math.Inf(1), nil
	}
	return sorted[k-1], nil
}

// median returns the median latency (the mean of the middle two for an
// even count); failures count as +Inf. It needs the same minBeyond samples
// above it as any percentile.
func (l *latencies) median() (float64, error) {
	n := l.n()
	if n < 2*minBeyond {
		return 0, fmt.Errorf("median of %d samples has fewer than %d beyond it", n, minBeyond)
	}
	all := append([]float64(nil), l.ok...)
	for range l.failed {
		all = append(all, math.Inf(1))
	}
	return median(all), nil
}

// median returns the middle value of xs (mean of the middle two for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
