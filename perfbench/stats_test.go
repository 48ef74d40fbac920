package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Descending, so the helper has to sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 100, 100},
		{95, 190, 10},
		{0.1, 1, 199},
		{1, 2, 198},
	} {
		q, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("p%g: %v", tc.p, err)
		}
		if q.Value != tc.value || q.N != 200 || q.Beyond != tc.beyond {
			t.Errorf("p%g = %+v, want value %g beyond %d of 200", tc.p, q, tc.value, tc.beyond)
		}
	}
	if xs[0] != 200 {
		t.Errorf("input was reordered")
	}
}

func TestPercentileFractionalRank(t *testing.T) {
	// 301 samples: p50 rank is ceil(150.5) = 151.
	q, err := Percentile(seq(301), 50)
	if err != nil || q.Value != 151 || q.Beyond != 150 {
		t.Fatalf("p50 of 1..301 = %+v, %v; want 151 with 150 beyond", q, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{200, 96}, // 8 beyond
		{199, 95}, // rank 190, 9 beyond
		{100, 95}, // 5 beyond
		{19, 50},  // 9 beyond
		{10, 100}, // 0 beyond
	} {
		q, err := Percentile(seq(tc.n), tc.p)
		if err == nil {
			t.Errorf("p%g of %d samples accepted with %d beyond", tc.p, tc.n, q.Beyond)
		}
		if q.N != tc.n {
			t.Errorf("p%g of %d: refused quantile reports n=%d", tc.p, tc.n, q.N)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := Percentile(seq(100), 0); err == nil {
		t.Error("p0 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", m)
	}
}
