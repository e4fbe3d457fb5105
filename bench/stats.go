package main

import (
	"math"
	"sort"
)

// sample is a set of per-operation timings in nanoseconds.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample, 0 for an empty one.
func percentile(sorted sample, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 { return percentile(sample(vals).sorted(), 0.5) }

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// tailLevels are the percentiles a report may quote, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// beyond is how many samples lie above the p-quantile of n samples.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// tailLevel picks the highest percentile that still has at least ten
// samples beyond it; a percentile resting on fewer is one slow request,
// not a distribution. ok is false when even p75 does not qualify.
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// stallShare is the share of total tick time spent in ticks slower
// than ten times the median tick. One stalled tick is a single sample
// to a percentile of a closed loop; weighing it by its duration counts
// the time a waiting client actually lost.
func stallShare(ticks []float64) float64 {
	total := sum(ticks)
	if total == 0 {
		return 0
	}
	limit := 10 * median(ticks)
	stalled := 0.0
	for _, d := range ticks {
		if d > limit {
			stalled += d
		}
	}
	return stalled / total
}

// iqrShare is the distance between the first and third quartile as a
// share of the median: the run-to-run spread -compare holds against a
// metric's bound. Quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method), which is what the acceptance harness uses.
func iqrShare(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := sample(vals).sorted()
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	mid := q(2)
	if mid == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(mid)
}
