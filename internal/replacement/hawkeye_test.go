package replacement

import (
	"testing"

	"repro/internal/mem"
)

func TestPredictorTraining(t *testing.T) {
	p := NewPredictor(8)
	pc := uint64(0x400123)
	if !p.Friendly(pc) {
		t.Fatal("predictor should start neutral-friendly")
	}
	for i := 0; i < 8; i++ {
		p.TrainNegative(pc)
	}
	if p.Friendly(pc) {
		t.Error("fully detrained PC still predicted friendly")
	}
	if p.Counter(pc) != 0 {
		t.Errorf("counter = %d, want saturated at 0", p.Counter(pc))
	}
	for i := 0; i < 20; i++ {
		p.TrainPositive(pc)
	}
	if !p.Friendly(pc) {
		t.Error("fully trained PC not predicted friendly")
	}
	if p.Counter(pc) != predictorMax {
		t.Errorf("counter = %d, want saturated at %d", p.Counter(pc), predictorMax)
	}
}

func TestPredictorBitsValidation(t *testing.T) {
	for _, bits := range []uint{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPredictor(%d) did not panic", bits)
				}
			}()
			NewPredictor(bits)
		}()
	}
}

func TestPredictorIndependentPCs(t *testing.T) {
	p := NewPredictor(13)
	a, b := uint64(0x1000), uint64(0x2000)
	for i := 0; i < 8; i++ {
		p.TrainNegative(a)
	}
	if !p.Friendly(b) {
		t.Error("detraining PC a affected PC b (hash collision at 13 bits is ~0 for 2 PCs)")
	}
}

func TestHawkeyeEvictsAversePCsFirst(t *testing.T) {
	h := NewHawkeye(1, 4, 1, 10)
	friendlyPC, aversePC := uint64(0xAAA0), uint64(0xBBB0)
	for i := 0; i < 8; i++ {
		h.Predictor().TrainPositive(friendlyPC)
		h.Predictor().TrainNegative(aversePC)
	}
	// Fill: ways 0-2 friendly, way 3 averse.
	for w := 0; w < 3; w++ {
		h.Fill(0, w, Access{Line: mem.Line(w), PC: friendlyPC})
	}
	h.Fill(0, 3, Access{Line: 3, PC: aversePC})
	v := h.Victim(0, 4)
	if v != 3 {
		t.Errorf("Victim = %d, want the cache-averse way 3", v)
	}
}

func TestHawkeyeDetrainsOnFriendlyEviction(t *testing.T) {
	h := NewHawkeye(1, 2, 1, 10)
	pc := uint64(0x77)
	for i := 0; i < 8; i++ {
		h.Predictor().TrainPositive(pc)
	}
	before := h.Predictor().Counter(pc)
	h.Fill(0, 0, Access{Line: 1, PC: pc})
	h.Fill(0, 1, Access{Line: 2, PC: pc})
	h.Victim(0, 2) // must evict a friendly line
	after := h.Predictor().Counter(pc)
	if after != before-1 {
		t.Errorf("counter after friendly eviction = %d, want %d", after, before-1)
	}
}

// End-to-end behavioral test: on a thrashing scan that LRU handles
// terribly, Hawkeye should learn to retain a subset and beat LRU.
func TestHawkeyeBeatsLRUOnScan(t *testing.T) {
	const (
		sets = 16
		ways = 4
	)
	run := func(p Policy) int {
		// Tiny direct cache model around the policy.
		type lineState struct {
			line  mem.Line
			valid bool
		}
		cache := make([][]lineState, sets)
		for i := range cache {
			cache[i] = make([]lineState, ways)
		}
		hits := 0
		// 6 lines per set cycling through 4 ways, 300 rounds.
		for round := 0; round < 300; round++ {
			for k := 0; k < 6; k++ {
				l := mem.Line(k*sets + 1) // same set 1 for stress
				set := mem.SetIndex(l, sets)
				a := Access{Line: l, PC: uint64(k)}
				found := -1
				for w := range cache[set] {
					if cache[set][w].valid && cache[set][w].line == l {
						found = w
						break
					}
				}
				if found >= 0 {
					hits++
					p.Hit(set, found, a)
					continue
				}
				// Like the cache, take an empty way before asking the
				// policy.
				w := 0
				for w < ways && cache[set][w].valid {
					w++
				}
				if w == ways {
					w = p.Victim(set, ways)
				}
				cache[set][w] = lineState{line: l, valid: true}
				p.Fill(set, w, a)
			}
		}
		return hits
	}
	lruHits := run(NewLRU(sets, ways))
	hawkHits := run(NewHawkeye(sets, ways, 1, 10))
	if lruHits != 0 {
		t.Errorf("LRU hits on 6-over-4 cyclic scan = %d, want 0 (sanity)", lruHits)
	}
	if hawkHits <= lruHits {
		t.Errorf("Hawkeye hits = %d, want > LRU's %d on thrashing scan", hawkHits, lruHits)
	}
}

func TestHawkeyeSampleEveryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHawkeye with non-pow2 sampleEvery did not panic")
		}
	}()
	NewHawkeye(8, 4, 3, 8)
}

func TestHawkeyeSamplerBounded(t *testing.T) {
	h := NewHawkeye(64, 4, 1, 8) // every set sampled
	for i := 0; i < 100000; i++ {
		a := Access{Line: mem.Line(i * 977), PC: uint64(i % 3)}
		h.Fill(i%64, i%4, a)
	}
	for set, s := range h.opt.sets {
		if len(s.last) > h.opt.maxTracked {
			t.Fatalf("set %d sampler grew to %d entries (cap %d)", set, len(s.last), h.opt.maxTracked)
		}
	}
}
