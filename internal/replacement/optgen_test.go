package replacement

import (
	"testing"

	"repro/internal/mem"
)

// optgenSim drives OPTgen with a line-address stream, tracking last
// access times the way a sampler would, and returns per-access OPT
// hit/miss decisions.
func optgenSim(capacity int, stream []mem.Line) []bool {
	o := NewOPTgen(capacity)
	last := map[mem.Line]uint64{}
	out := make([]bool, len(stream))
	for i, l := range stream {
		t, seen := last[l]
		out[i] = o.Access(t, seen)
		last[l] = o.Now() - 1
	}
	return out
}

func TestOPTgenColdMisses(t *testing.T) {
	got := optgenSim(2, []mem.Line{1, 2, 3, 4})
	for i, hit := range got {
		if hit {
			t.Errorf("access %d: cold access reported as OPT hit", i)
		}
	}
}

func TestOPTgenSimpleReuse(t *testing.T) {
	// Capacity 2, stream A B A B: both reuses fit under OPT.
	got := optgenSim(2, []mem.Line{10, 20, 10, 20})
	want := []bool{false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d: hit=%v, want %v", i, got[i], want[i])
		}
	}
}

func TestOPTgenCapacityPressure(t *testing.T) {
	// OPTgen models Belady WITH BYPASS (as in the Hawkeye paper): lines
	// that are never reused bypass the cache. Capacity 1, stream
	// A B A: B bypasses, so A's reuse is an OPT hit.
	got := optgenSim(1, []mem.Line{1, 2, 1})
	want := []bool{false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cap=1 access %d: hit=%v, want %v", i, got[i], want[i])
		}
	}
	// Capacity 1, stream A B A B: both lines have overlapping liveness
	// intervals; only one can be kept, so exactly one reuse hits.
	got = optgenSim(1, []mem.Line{1, 2, 1, 2})
	hits := 0
	for _, h := range got {
		if h {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("cap=1 ABAB: %d OPT hits, want exactly 1", hits)
	}
	// Capacity 2 fits both liveness intervals: two hits.
	got = optgenSim(2, []mem.Line{1, 2, 1, 2})
	if !got[2] || !got[3] {
		t.Errorf("cap=2 ABAB: got %v, want both reuses to hit", got)
	}
}

func TestOPTgenMatchesBeladyOnScan(t *testing.T) {
	// Cyclic scan of N+1 lines through capacity N: Belady-with-bypass
	// pins N lines and lets the extra one always miss, giving a steady
	// state hit rate of N/(N+1) = 80%. LRU gets exactly zero here.
	const capacity = 4
	var stream []mem.Line
	for rep := 0; rep < 50; rep++ {
		for l := mem.Line(0); l < capacity+1; l++ {
			stream = append(stream, l)
		}
	}
	got := optgenSim(capacity, stream)
	hits := 0
	for _, h := range got {
		if h {
			hits++
		}
	}
	total := len(stream)
	// Steady state: 4 of every 5 accesses hit => 80%. Allow warmup to
	// pull it down a bit.
	rate := float64(hits) / float64(total)
	if rate < 0.70 || rate > 0.82 {
		t.Errorf("OPTgen hit rate on scan = %.2f, want ~0.75-0.80 (Belady with bypass)", rate)
	}
}

func TestOPTgenHitRateMonotoneInCapacity(t *testing.T) {
	// The same stream must never hit less often with a larger capacity.
	stream := make([]mem.Line, 0, 600)
	state := uint64(12345)
	for i := 0; i < 600; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		stream = append(stream, mem.Line(state%40))
	}
	prevRate := -1.0
	for _, c := range []int{1, 2, 4, 8, 16, 32} {
		got := optgenSim(c, stream)
		hits := 0
		for _, h := range got {
			if h {
				hits++
			}
		}
		rate := float64(hits) / float64(len(stream))
		if rate < prevRate-1e-9 {
			t.Errorf("capacity %d: hit rate %.3f < previous %.3f (not monotone)", c, rate, prevRate)
		}
		prevRate = rate
	}
}

func TestOPTgenWindowExpiry(t *testing.T) {
	o := NewOPTgen(1) // history = 8
	last := uint64(0)
	o.Access(0, false)
	last = o.Now() - 1
	// Push 10 unrelated accesses, aging the first line out of the window.
	for i := 0; i < 10; i++ {
		o.Access(0, false)
	}
	if o.Access(last, true) {
		t.Error("access outside the 8x history window must be an OPT miss")
	}
}

func TestOPTgenCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewOPTgen(0) did not panic")
		}
	}()
	NewOPTgen(0)
}
