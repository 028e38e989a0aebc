// Package layers holds the benchmark's per-layer microbenches: each
// times a few exported calls of one package of the program, from
// outside it, and reports the result under "<package>.<metric>".
// Counts (multiply-adds, bytes, allocations) are exact and repeat bit
// for bit; timings are means or percentiles over a fixed number of
// calls.
package layers

import (
	"runtime"
	"sort"
	"time"
)

// Metrics maps metric names to values.
type Metrics map[string]float64

// each times n calls of f one by one.
func each(n int, f func(i int)) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		f(i)
		out[i] = time.Since(t0)
	}
	return out
}

// total times n calls of f together; for calls too short to time one
// by one.
func total(n int, f func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t0)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func meanOf(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// pct returns the q-quantile of ds (nearest rank).
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// AllocsPer reports heap allocations per call of f, averaged over n
// calls after one warm-up call.
func AllocsPer(n int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
