package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (nearest rank) of sorted
// durations; 0 for an empty slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100 // ceil(n*p/100)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supported reports whether n samples leave at least ten beyond the p-th
// percentile, the least a tail percentile needs to be more than the echo of
// a few slow requests.
func supported(n, p int) bool {
	rank := (n*p + 99) / 100
	return n-rank >= 10
}

// median returns the median of vs (mean of the middle two when even); 0 for
// an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return percentile(s, 50)
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// iqrShare is the distance between the first and third quartile of vs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the acceptance rule of this
// benchmark is stated in those terms). 0 when vs has fewer than two values
// or a zero median.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4, 1-based, clamped to
		// 1..n-1 and interpolated (extrapolated past the clamp).
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}

// sample is one completed request of the measured phase.
type sample struct {
	// at is the request's start, from the start of the phase.
	at    time.Duration
	dur   time.Duration
	write bool
	ok    bool
}

// windowed is one metric over the measured phase. The phase is cut into
// numWindows equal spans of time, the windows are ranked by the ops they
// completed, and the value is computed over the keptWindows fastest windows
// taken together. Other tenants of the host slow this process for seconds at
// a time and never speed it up, so the faster half of a run is the half that
// says most about the program, and a stall of up to half the run moves no
// result. What the dropped windows looked like is reported as the per-layer
// diagnostic front.window_spread. Windows and Raw are as the clock read them.
type windowed struct {
	// Value is the metric at the reference speed (see probe.go); Raw is what
	// the clock read, where that differs.
	Value float64 `json:"value"`
	Raw   float64 `json:"raw,omitempty"`
	// Windows is the metric in every window, kept or not, in time order.
	Windows []float64 `json:"windows,omitempty"`
	// Samples is the number of samples Value was computed from.
	Samples int `json:"samples"`
}

// windowOf returns the window in which a sample completed, -1 when that was
// after the end of the phase (a request in flight at the deadline).
func windowOf(s sample, phase time.Duration) int {
	if w := int((s.at + s.dur) * numWindows / phase); w < numWindows {
		return w
	}
	return -1
}

// quietWindows counts the successful ops each window completed and marks the
// keptWindows windows that completed most (the earlier one on a tie).
func quietWindows(samples []sample, phase time.Duration) (counts []int, quiet []bool) {
	counts = make([]int, numWindows)
	for _, s := range samples {
		if w := windowOf(s, phase); w >= 0 && s.ok {
			counts[w]++
		}
	}
	order := make([]int, numWindows)
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	quiet = make([]bool, numWindows)
	for _, w := range order[:keptWindows] {
		quiet[w] = true
	}
	return counts, quiet
}

// latencyOver computes the p-th latency percentile, in ms, of the successful
// samples pick selects, over the kept windows taken together. When those
// hold too few samples to leave ten beyond the percentile, it is read off
// the whole phase instead, so that a tail is never the echo of a few slow
// requests while the phase as a whole has enough of them.
func latencyOver(samples []sample, phase time.Duration, quiet []bool, p int, pick func(sample) bool) windowed {
	per := make([][]time.Duration, numWindows)
	var pooled, all []time.Duration
	for _, s := range samples {
		if !pick(s) || !s.ok {
			continue
		}
		all = append(all, s.dur)
		if w := windowOf(s, phase); w >= 0 {
			per[w] = append(per[w], s.dur)
			if quiet[w] {
				pooled = append(pooled, s.dur)
			}
		}
	}
	out := windowed{Windows: make([]float64, numWindows)}
	for w, ds := range per {
		sortDurations(ds)
		out.Windows[w] = ms(percentile(ds, p))
	}
	if !supported(len(pooled), p) {
		pooled = all
	}
	sortDurations(pooled)
	out.Raw, out.Samples = ms(percentile(pooled, p)), len(pooled)
	out.Value = out.Raw
	return out
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
}
