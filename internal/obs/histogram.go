package obs

import (
	"math/bits"
	"sync/atomic"
)

// The histogram is log-linear (HDR-style): values below histSub land
// in unit-wide buckets; above that, every power-of-two range [2^e,
// 2^(e+1)) is split into histSub linear sub-buckets. Bucket boundaries
// are fixed at compile time — no adaptive resizing — so two histograms
// recorded on different machines (or the same machine on different
// days) have identical bucket layouts: snapshots merge by elementwise
// addition and render byte-identically for identical counts.
//
// With histSub = 16 the worst-case relative quantile error is one
// sub-bucket width: 1/16 = 6.25%.
const (
	histSub     = 16
	histSubBits = 4 // log2(histSub)
	// histBuckets covers the full uint64 range: histSub unit buckets
	// plus histSub sub-buckets for each exponent 4..63.
	histBuckets = histSub + (64-histSubBits)*histSub
)

// bucketOf maps a value to its bucket index. Total order is preserved:
// v1 <= v2 implies bucketOf(v1) <= bucketOf(v2).
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1), e >= histSubBits
	return histSub + (e-histSubBits)*histSub + int((v-1<<e)>>(uint(e)-histSubBits))
}

// bucketUpper returns the largest value that maps to bucket i (the
// inclusive upper bound reported by quantile estimation).
func bucketUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	e := uint(i/histSub - 1 + histSubBits)
	off := uint64(i % histSub)
	width := uint64(1) << (e - histSubBits)
	return 1<<e + (off+1)*width - 1
}

// Histogram is a fixed-layout log-linear histogram safe for concurrent
// Observe and Snapshot. Values are raw uint64 units (the service
// records nanoseconds); Scale converts them at export time (1e-9 for
// nanoseconds rendered as Prometheus seconds).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a histogram. Snapshots of
// concurrently-observed histograms are internally consistent enough
// for monitoring (each bucket count is an atomic load); a quiescent
// histogram snapshots exactly.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Snapshot copies the current counts.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	// Load count and sum before the buckets: Observe increments the
	// bucket before the count, so every observation the loaded Count
	// includes is already in a bucket, and Count never exceeds the
	// bucket total. (Loading the buckets first lets observations land
	// in already-scanned buckets before the count is read.)
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Merge adds other's counts into s. Bucket layouts are identical by
// construction, so merging is elementwise addition — commutative and
// associative, which makes per-shard histograms exactly combinable.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Quantile returns the inclusive upper bound of the bucket holding the
// q-quantile observation (q in [0, 1]). The estimate is deterministic
// for a deterministic set of observations and never underestimates the
// true value by construction; it overestimates by at most one
// sub-bucket width (6.25% relative above histSub, exact below).
// Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket (0 when
// empty).
func (s *HistSnapshot) Max() uint64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return bucketUpper(i)
		}
	}
	return 0
}
