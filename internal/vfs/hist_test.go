package vfs

import (
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1 << 39, 39}, {1 << 45, 39}, {^uint64(0), 39},
	}
	for _, c := range cases {
		if got := histBucketOf(c.ns); got != c.want {
			t.Errorf("histBucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{1, 100, 1000, 10000, 100000} {
		h.Observe(d)
	}
	h.Observe(-5 * time.Second) // clamped to zero, must not corrupt sum
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 111101 {
		t.Fatalf("sum = %d, want 111101", s.Sum)
	}
	if s.Max != 100000 {
		t.Fatalf("max = %v, want 100µs", s.Max)
	}
	if avg := s.Avg(); avg != 111101/6 {
		t.Fatalf("avg = %v", avg)
	}
	// p50 of {0,1,100,1000,10000,100000}: rank 3 lands in 100's bucket.
	if q := s.Quantile(0.5); q < 100 || q > 256 {
		t.Fatalf("p50 = %v, want within (100, 256]", q)
	}
	if q := s.Quantile(1.0); q < 100000 {
		t.Fatalf("p100 = %v, want >= 100µs", q)
	}

	// Nearest rank, never above Max: the rank is ceil(q·Count), so p99 of
	// two samples is the larger one, and a bucket bound above every sample
	// is capped at the largest.
	for _, c := range []struct {
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{[]time.Duration{time.Microsecond, time.Millisecond}, 0.99, time.Millisecond},
		{[]time.Duration{1000, 1000, 1000}, 0.5, 1000},
		{[]time.Duration{1 << 45}, 0.5, 1 << 45}, // the open-ended last bucket
	} {
		var h Histogram
		for _, d := range c.samples {
			h.Observe(d)
		}
		if got := h.Snapshot().Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) of %v = %v, want %v", c.q, c.samples, got, c.want)
		}
	}
}
