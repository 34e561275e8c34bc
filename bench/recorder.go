package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation: when it completed (since the run's
// epoch) and how long after its due time that was.
type sample struct {
	At, Lat time.Duration
}

// quantile returns the exact q-quantile (nearest rank) of sorted values:
// the smallest retained sample with at least q of the samples at or below
// it. No buckets — a 0.5 % shift in the inputs is a 0.5 % shift here.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.90}

// tailQuantile picks the highest percentile that still has at least ten
// of n samples beyond it; below 100 samples only the median is reportable
// and ok is false.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		// 1e-9: q·n for the decimal quantiles above is a whole number that
		// floating point may land just above.
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			return q, true
		}
	}
	return 0.5, false
}

// latencySummary is what the benchmark reports for the fixed-rate phase.
type latencySummary struct {
	N int `json:"n"`
	// P10, P50 and P99 are the medians, over whole windows of the phase, of
	// each window's exact p10, p50 and p99 (milliseconds). A window holds at
	// least a thousand samples, so its p99 has ten beyond it. One stalled
	// window — a descheduled vCPU, an unlucky GC cycle — moves none of them;
	// a p99 over the whole phase is set by the two worst windows.
	P10     float64 `json:"p10_ms"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
	Windows int     `json:"windows"`
	// The same percentiles over the whole phase, and the highest
	// percentile that still has ten samples beyond it.
	WholeP50 float64 `json:"whole_p50_ms"`
	WholeP99 float64 `json:"whole_p99_ms"`
	TailQ    float64 `json:"tail_q"`
	Tail     float64 `json:"tail_ms"`
	Beyond99 int     `json:"samples_beyond_whole_p99"`
}

func summarize(samples []sample, from, to, window time.Duration) latencySummary {
	ms := func(s sample) float64 { return float64(s.Lat) / float64(time.Millisecond) }
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = ms(s)
	}
	sort.Float64s(all)
	sum := latencySummary{N: len(all), WholeP50: quantile(all, 0.5), WholeP99: quantile(all, 0.99)}
	sum.Beyond99 = len(all) - int(math.Ceil(0.99*float64(len(all))))
	sum.TailQ, _ = tailQuantile(len(all))
	sum.Tail = quantile(all, sum.TailQ)

	n := int((to - from) / window)
	if n < 1 {
		n, window = 1, to-from+1 // a phase shorter than one window is one window
	}
	byWindow := make([][]float64, n)
	for _, s := range samples {
		if i := int((s.At - from) / window); s.At >= from && i < n {
			byWindow[i] = append(byWindow[i], ms(s))
		}
	}
	var p10s, p50s, p99s []float64
	for _, w := range byWindow {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		p10s = append(p10s, quantile(w, 0.1))
		p50s = append(p50s, quantile(w, 0.5))
		p99s = append(p99s, quantile(w, 0.99))
	}
	sum.Windows = len(p50s)
	if sum.Windows > 0 {
		sum.P10, sum.P50, sum.P99 = median(p10s), median(p50s), median(p99s)
	}
	return sum
}
