package main

import (
	"math"
	"sort"
	"time"
)

// clockBase anchors now(): time.Since on a monotonic Time reads only the
// runtime's monotonic clock, where time.Now also reads the wall clock.
var clockBase = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// histNs is the number of exact one-nanosecond buckets of a latency
// histogram; longer samples are kept individually in the overflow list.
const histNs = 1 << 16

// latHist is an exact latency histogram: every sample below histNs ns
// lands in its own nanosecond bucket, so quantiles carry no bucketing
// error.
type latHist struct {
	counts []uint32
	over   []int64
	n      int64
	sum    float64
}

func newLatHist() *latHist { return &latHist{counts: make([]uint32, histNs)} }

func (h *latHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns < histNs {
		h.counts[ns]++
	} else {
		h.over = append(h.over, ns)
	}
	h.n++
	h.sum += float64(ns)
}

// quantile returns the q-quantile in nanoseconds. The rank is the
// continuous position q·(n-1); within a one-nanosecond bucket holding c
// samples the value is interpolated linearly, so the result keeps the
// sub-nanosecond information a large sample carries.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below float64
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			return float64(v) + (rank-below+0.5)/float64(c)
		}
		below += float64(c)
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	i := int(rank - below)
	if i >= len(h.over) {
		i = len(h.over) - 1
	}
	return float64(h.over[i])
}

// series is one worker's latency samples of one passage kind.
type series struct {
	lat []uint32
}

func (s *series) add(ns int64) {
	s.lat = append(s.lat, uint32(min(max(ns, 0), math.MaxUint32)))
}

// into adds every sample to h.
func (s *series) into(h *latHist) {
	for _, v := range s.lat {
		h.add(int64(v))
	}
}

// quartiles returns the three quartiles of vs with the same definition
// as Python's statistics.quantiles(vs, n=4) (the "exclusive" method),
// which is how the benchmark's spread is judged.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the median of vs (0 for an empty slice).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
