package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketPlacementDeterministic pins the fixed bucket layout:
// placement is a pure function of the value, unit-exact below histSub,
// with hand-checked log-linear boundaries above it.
func TestBucketPlacementDeterministic(t *testing.T) {
	for v := uint64(0); v < histSub; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want %d (unit bucket)", v, got, v)
		}
		if up := bucketUpper(int(v)); up != v {
			t.Fatalf("bucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
	cases := []struct {
		v      uint64
		bucket int
	}{
		{16, 16}, {31, 31}, // [16, 32): width-1 sub-buckets
		{32, 32}, {33, 32}, // [32, 64): width-2 sub-buckets
		{34, 33}, {63, 47},
		{64, 48}, {67, 48}, {68, 49}, // [64, 128): width-4
		{1 << 20, histSub + (20-histSubBits)*histSub},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
}

// TestBucketInverseConsistency sweeps the whole value range: every
// value lands in a bucket whose [lower, upper] range contains it, and
// placement is order-preserving across bucket edges.
func TestBucketInverseConsistency(t *testing.T) {
	check := func(v uint64) {
		t.Helper()
		b := bucketOf(v)
		up := bucketUpper(b)
		if v > up {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, b, up)
		}
		if b > 0 {
			if lo := bucketUpper(b-1) + 1; v < lo {
				t.Fatalf("value %d below its bucket %d lower bound %d", v, b, lo)
			}
		}
		if bucketOf(up) != b {
			t.Fatalf("upper bound %d of bucket %d maps to bucket %d", up, b, bucketOf(up))
		}
		if up != ^uint64(0) && bucketOf(up+1) != b+1 {
			t.Fatalf("value %d (one past bucket %d) maps to bucket %d, want %d", up+1, b, bucketOf(up+1), b+1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Uint64() >> uint(rng.Intn(64)))
	}
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		check(v)
	}
}

// TestMergeAssociativity pins that histogram snapshots merge exactly:
// (a+b)+c == a+(b+c) == one histogram observing everything, bucket for
// bucket — the property that makes per-shard histograms combinable.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all Histogram
	parts := make([]*Histogram, 3)
	for i := range parts {
		parts[i] = &Histogram{}
		for j := 0; j < 5000; j++ {
			v := rng.Uint64() >> uint(rng.Intn(60))
			parts[i].Observe(v)
			all.Observe(v)
		}
	}
	left := parts[0].Snapshot()
	left.Merge(parts[1].Snapshot())
	left.Merge(parts[2].Snapshot())

	bc := parts[1].Snapshot()
	bc.Merge(parts[2].Snapshot())
	right := parts[0].Snapshot()
	right.Merge(bc)

	whole := all.Snapshot()
	for i, m := range []HistSnapshot{left, right} {
		if m.Count != whole.Count || m.Sum != whole.Sum || m.Buckets != whole.Buckets {
			t.Fatalf("merge order %d differs from the directly-observed histogram", i)
		}
	}
}

// TestQuantileErrorBounds pins the estimator guarantee: the returned
// quantile never undershoots the true order statistic and overshoots
// by at most one sub-bucket (1/histSub relative above histSub).
func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	values := make([]uint64, 20001)
	for i := range values {
		v := uint64(rng.Int63n(1_000_000_000)) // ns-scale latencies
		values[i] = v
		h.Observe(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(q * float64(len(values)))
		if rank >= len(values) {
			rank = len(values) - 1
		}
		truth := values[rank]
		got := s.Quantile(q)
		if got < truth {
			t.Errorf("q=%g: estimate %d undershoots true %d", q, got, truth)
		}
		if limit := bucketUpper(bucketOf(truth)); got > limit {
			t.Errorf("q=%g: estimate %d exceeds bucket bound %d (true %d)", q, got, limit, truth)
		}
		if truth >= histSub && float64(got) > float64(truth)*(1+1.0/histSub)+1 {
			t.Errorf("q=%g: estimate %d violates the %.2f%% relative error bound (true %d)",
				q, got, 100.0/histSub, truth)
		}
	}
	if s.Max() < values[len(values)-1] {
		t.Errorf("Max %d undershoots true max %d", s.Max(), values[len(values)-1])
	}
}

// TestQuantileEmptyAndSingle pins the edge cases.
func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Max() != 0 {
		t.Error("empty histogram quantiles should be 0")
	}
	h.Observe(7)
	s = h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("single-value q=%g = %d, want 7 (exact unit bucket)", q, got)
		}
	}
}

// TestConcurrentObserveScrape is the race-detector test for the
// histogram/registry scrape path: hammer Observe from several
// goroutines while snapshots and Prometheus renders run concurrently,
// then check the final totals are exact.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "test", 1e-9)
	const (
		writers = 4
		perG    = 20000
	)
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var total uint64
			for _, c := range s.Buckets {
				total += c
			}
			// Count is loaded before the buckets, so it can never exceed
			// the bucket total even mid-update.
			if s.Count > total {
				t.Errorf("snapshot count %d exceeds bucket total %d", s.Count, total)
				return
			}
			var sink discard
			r.WritePrometheus(&sink)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(uint64(rng.Int63n(1 << 30)))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := h.Count(); got != writers*perG {
		t.Fatalf("count %d after concurrent observes, want %d", got, writers*perG)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
