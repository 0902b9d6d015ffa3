package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by nearest rank;
// 0 for an empty sample so a missing layer prints as 0, not NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of v (the mean of the two middle
// values for an even count), leaving v as it was.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// window is the timed part of a run, in ns since the run's epoch, cut
// into equal buckets.
type window struct {
	t0, t1  int64
	buckets int
}

func (w window) bucketLen() int64 { return (w.t1 - w.t0) / int64(w.buckets) }

// bucketRates spreads every verified call over the buckets it overlaps,
// in proportion to the time it spent in each, and returns per-bucket
// calls/s and payload bytes/s. At thousands of calls per bucket this is
// the completion count; at three 8 MiB calls per bucket it removes the
// ±1-call quantization that would otherwise dominate the median.
func bucketRates(recs []rec, w window) (calls, bytes []float64) {
	calls = make([]float64, w.buckets)
	bytes = make([]float64, w.buckets)
	bl := w.bucketLen()
	for i := range recs {
		r := &recs[i]
		if !r.ok || r.end <= w.t0 || r.start >= w.t1 {
			continue
		}
		dur := float64(r.end - r.start)
		if dur <= 0 {
			dur = 1
		}
		lo, hi := max(r.start, w.t0), min(r.end, w.t1)
		for b := (lo - w.t0) / bl; b < int64(w.buckets) && w.t0+b*bl < hi; b++ {
			bs, be := w.t0+b*bl, w.t0+(b+1)*bl
			ov := float64(min(hi, be)-max(lo, bs)) / dur
			calls[b] += ov
			bytes[b] += ov * float64(r.bytes)
		}
	}
	perSec := 1e9 / float64(bl)
	for b := range calls {
		calls[b] *= perSec
		bytes[b] *= perSec
	}
	return calls, bytes
}

// latencies returns the sorted wall times, in µs, of the calls of the
// wanted classes that started inside the window.
func latencies(recs []rec, w window, want func(class uint8) bool) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if r.ok && r.start >= w.t0 && r.start < w.t1 && want(r.class) {
			out = append(out, float64(r.end-r.start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}
