package vfs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of fixed log-scale latency buckets. Bucket i
// covers durations in [2^i, 2^(i+1)) nanoseconds (bucket 0 also absorbs
// 0ns), so 40 buckets span one nanosecond to 2^40 ns, about eighteen
// minutes (the last bucket also absorbs anything longer) — wide enough
// for any in-process operation without ever reallocating.
const HistBuckets = 40

// Histogram is a fixed-bucket log-scale latency histogram. All fields are
// atomics, so Observe is lock-free and safe to call from any goroutine.
// Its callers time events (an echo round trip, a flow's create→installed
// span), never every vfs call: the clock reads would cost more than the
// histogram.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

// histBucketOf maps a duration in nanoseconds to its bucket index.
func histBucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b > 0 {
		b--
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// HistBucketBound returns the exclusive upper bound of bucket i.
func HistBucketBound(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i+1))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[histBucketOf(ns)].Add(1)
}

// Snapshot returns a consistent-enough copy for reporting (buckets are
// read individually; the histogram may be concurrently updated).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]uint64
}

// Avg returns the mean observed duration.
func (s HistSnapshot) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets by
// nearest rank: the sample at rank ceil(q·Count) (at least 1) lies in
// some bucket, and the estimate is that bucket's upper bound, capped at
// Max — no sample exceeds it. The last bucket is open-ended, so a rank
// that lands there reports Max.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(uint64(math.Ceil(q*float64(s.Count))), 1)
	var seen uint64
	for i, c := range s.Buckets[:HistBuckets-1] {
		seen += c
		if seen >= rank {
			return min(HistBucketBound(i), s.Max)
		}
	}
	return s.Max
}
