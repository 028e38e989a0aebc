// Package obs is the observability layer: zero-allocation-on-hot-path
// latency histograms, a counter/gauge registry with Prometheus text
// export, fixed-size per-frame pipeline traces with Chrome trace_event
// export, an opt-in debug HTTP server, and slog helpers. Every other
// layer (core, filter, archive, fleet, metrics, cmds) may import obs;
// obs imports none of them.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram resolution: bucket b counts
// observations in [2^b, 2^(b+1)) nanoseconds. Bucket 0 is the
// underflow bucket (everything below 2 ns, including zero and
// negative observations); the top bucket is the overflow bucket
// (everything at or above 2^(NumBuckets-1) ns ≈ 9 minutes).
const NumBuckets = 40

// Histogram is a log2-bucketed latency histogram. Observe is
// lock-free (atomic bucket counters) and allocation-free, safe for
// any number of concurrent writers; readers take consistent-enough
// snapshots without stopping them.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // exact total, ns
	max     atomic.Int64 // worst observation, ns
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps an observation in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 2 {
		return 0 // underflow: zero, one, and negative observations
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1 // overflow
	}
	return b
}

// bucketBounds returns bucket b's value range [lo, hi) in ns. The
// overflow bucket's hi is the int64 ceiling; quantile extraction caps
// it at the observed max instead.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 2
	}
	lo = int64(1) << uint(b)
	if b == NumBuckets-1 {
		return lo, int64(1<<62) + (int64(1)<<62 - 1)
	}
	return lo, lo << 1
}

// Observe records one latency sample. Allocation-free.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one latency sample given in nanoseconds.
// Allocation-free.
func (h *Histogram) ObserveNs(ns int64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram's counters.
// Concurrent writers may land between field reads, so Count can be
// slightly ahead of the bucket total; quantile extraction tolerates
// this.
type HistSnapshot struct {
	Count   uint64
	Sum     int64
	Max     int64
	Buckets [NumBuckets]uint64
}

// Snapshot copies the histogram's current counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds,
// linearly interpolated within the containing bucket, 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Quantile extracts a quantile from the snapshot. Within the
// containing bucket the value is linearly interpolated across the
// bucket's range; the range is capped at the observed maximum so the
// overflow bucket (and a sparse top bucket) report real values, never
// beyond anything actually seen.
func (s *HistSnapshot) Quantile(q float64) int64 {
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for b, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if target > next {
			cum = next
			continue
		}
		lo, hi := bucketBounds(b)
		if s.Max >= lo && s.Max < hi {
			hi = s.Max + 1 // don't interpolate past the observed worst
		}
		frac := (target - cum) / float64(c)
		v := lo + int64(frac*float64(hi-lo))
		if v > s.Max {
			v = s.Max
		}
		return v
	}
	return s.Max
}

// Merge folds another snapshot in: counts, sums and buckets add, and
// the max takes the larger. Every field is an integer total or a
// maximum, so the merge is exact — associative, commutative, and the
// merged snapshot is the snapshot of the combined observations under
// any grouping. That is what lets heartbeats carry per-node snapshots
// and the fleet rollup report true fleet-wide quantiles.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	s.Max = max(s.Max, o.Max)
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}
