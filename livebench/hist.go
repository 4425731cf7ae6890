package main

import (
	"math"
	"math/bits"
)

// Latency histogram geometry: values below 2·subCount ns fall in
// one-nanosecond buckets; above, each power of two is split into
// subCount buckets, so a bucket is at most 1/subCount of its value wide
// (under 1% at subBits = 7). A histogram takes a fixed 59 KiB however
// many ops it records, so the benchmark's memory does not grow with the
// load it measures.
const (
	subBits  = 7
	subCount = 1 << subBits
	histLen  = (64 - subBits + 1) * subCount
)

// hist counts op latencies in nanoseconds, and failed ops apart from
// them: a failed op ranks above every latency.
type hist struct {
	counts [histLen]uint64
	n      uint64 // completed ops
	failed uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketValue is the middle of bucket i, in ns.
func bucketValue(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	shift := i/subCount - 1
	lower := uint64(i%subCount+subCount) << uint(shift)
	width := uint64(1) << uint(shift)
	return float64(lower) + float64(width-1)/2
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) addFailed() { h.failed++ }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.failed += o.failed
}

// percentile returns the q-quantile (0 < q ≤ 1) by the nearest-rank
// rule, in ns, and how many ops rank strictly above its bucket, failed
// ops included. A quantile that lands on failed ops is +Inf.
func (h *hist) percentile(q float64) (v float64, beyond uint64) {
	total := h.n + h.failed
	if total == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen >= rank {
			return bucketValue(i), total - seen
		}
	}
	return math.Inf(1), 0
}
