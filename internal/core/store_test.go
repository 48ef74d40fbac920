package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/replacement"
)

func newTestStore(assoc int, hawkeye bool) *store {
	return newStore(assoc, hawkeye, replacement.NewPredictor(10))
}

func TestStoreInsertLookupRoundTrip(t *testing.T) {
	s := newTestStore(4, false)
	s.insert(100, 9999, 1)
	next, way, ok := s.lookup(100)
	if !ok || next != 9999 {
		t.Fatalf("lookup = %d,%v want 9999,true", next, ok)
	}
	if way < 0 || way >= 4 {
		t.Errorf("way = %d out of range", way)
	}
}

func TestStoreSetIndexing(t *testing.T) {
	// Lines 2048 apart share a set; others don't collide at assoc 1.
	s := newTestStore(1, false)
	s.insert(5, 10, 1)
	s.insert(5+metadataSets, 20, 1) // same set, displaces under assoc 1
	if _, _, ok := s.lookup(5); ok {
		t.Error("entry for 5 survived a same-set displacement at assoc 1")
	}
	if next, _, ok := s.lookup(5 + metadataSets); !ok || next != 20 {
		t.Error("displacing entry missing")
	}
	// A different set is unaffected.
	s.insert(6, 30, 1)
	if _, _, ok := s.lookup(5 + metadataSets); !ok {
		t.Error("insert to another set displaced set 5's entry")
	}
}

func TestStoreConfidenceFlip(t *testing.T) {
	s := newTestStore(4, false)
	s.insert(7, 100, 1) // conf=true
	s.insert(7, 200, 1) // disagreement: conf=false, successor kept
	if next, _, _ := s.lookup(7); next != 100 {
		t.Errorf("successor flipped after one disagreement: %d", next)
	}
	s.insert(7, 200, 1) // second disagreement: replace
	if next, _, _ := s.lookup(7); next != 200 {
		t.Errorf("successor not replaced after two disagreements: %d", next)
	}
	s.insert(7, 100, 1) // one disagreement again
	s.insert(7, 200, 1) // re-agreement resets confidence
	if next, _, _ := s.lookup(7); next != 200 {
		t.Errorf("successor lost after re-agreement: %d", next)
	}
}

func TestStoreResizeShrinkInvalidates(t *testing.T) {
	s := newTestStore(4, false)
	// Fill 4 ways of set 0.
	for i := 0; i < 4; i++ {
		s.insert(mem.Line(i*metadataSets), mem.Line(1000+i), 1)
	}
	if s.occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", s.occupancy())
	}
	s.resize(2)
	if s.occupancy() > 2 {
		t.Errorf("occupancy after shrink = %d, want <= 2", s.occupancy())
	}
	if s.capacityBytes() != 2*metadataSets*bytesPerEntry {
		t.Errorf("capacityBytes = %d", s.capacityBytes())
	}
	// Growing back does not resurrect entries.
	s.resize(4)
	if s.occupancy() > 2 {
		t.Error("grow resurrected invalidated entries")
	}
}

func TestStoreResizeClamps(t *testing.T) {
	s := newTestStore(4, false)
	s.resize(100)
	if s.assoc != 4 {
		t.Errorf("assoc = %d, want clamped to 4", s.assoc)
	}
	s.resize(-1)
	if s.assoc != 0 {
		t.Errorf("assoc = %d, want clamped to 0", s.assoc)
	}
	if _, _, ok := s.lookup(1); ok {
		t.Error("lookup succeeded on a zero-size store")
	}
	s.insert(1, 2, 3) // must not panic
}

func TestStoreHawkeyeProtectsFriendlyEntries(t *testing.T) {
	pred := replacement.NewPredictor(10)
	s := newStore(2, true, pred)
	friendly, averse := uint64(0xF0), uint64(0xA0)
	for i := 0; i < 8; i++ {
		pred.TrainPositive(friendly)
		pred.TrainNegative(averse)
	}
	// Two friendly entries fill set 0.
	s.insert(0, 100, friendly)
	s.insert(mem.Line(metadataSets), 200, friendly)
	// An averse insert must not displace... it has to displace something
	// (capacity), but a subsequent friendly re-insert should displace
	// the averse entry, not the surviving friendly one.
	s.insert(mem.Line(2*metadataSets), 300, averse)
	s.insert(mem.Line(3*metadataSets), 400, friendly)
	if _, _, ok := s.lookup(mem.Line(2 * metadataSets)); ok {
		t.Error("averse entry survived while friendly entries were displaced")
	}
}

func TestStoreOccupancyBoundProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		s := newTestStore(2, true)
		for _, op := range ops {
			l := mem.Line(op % 8192)
			switch op % 3 {
			case 0:
				s.insert(l, l+1, uint64(op%5))
			case 1:
				s.lookup(l)
			default:
				if next, way, ok := s.lookup(l); ok {
					s.promote(l, way, uint64(op%5))
					_ = next
				}
			}
		}
		return s.occupancy() <= 2*metadataSets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStoreReuseTracking(t *testing.T) {
	s := newTestStore(4, false)
	s.enableReuseTracking()
	s.insert(1, 2, 1)
	for i := 0; i < 3; i++ {
		s.lookup(1)
	}
	if got, _ := s.reuse.Get(1); got != 3 {
		t.Errorf("reuse[1] = %d, want 3", got)
	}
}

func TestStoreCompressedTagRecycling(t *testing.T) {
	// Exhaust the 10-bit successor-tag table. Entries holding recycled
	// ids either fail lookup (id invalidated) or resolve to the id's
	// NEW tag — a silent misprediction, exactly what cheap hardware
	// does; the prefetch is then simply inaccurate. The test pins down
	// that (a) recycling happens and (b) the store never panics or
	// corrupts unrelated entries.
	s := newTestStore(1, false)
	first := mem.Line(0)
	s.insert(first, mem.Line(42<<11), 1) // successor tag 42
	for i := 1; i <= 1100; i++ {
		// Different sets, all-new successor tags exhaust the compressor.
		s.insert(mem.Line(i), mem.Line(uint64(1000+i)<<11), 1)
	}
	if s.nextComp.Recycled() == 0 {
		t.Fatal("compressor never recycled despite 1100 distinct tags in a 1024-slot table")
	}
	// A recently inserted entry (its tag is fresh) must still resolve
	// correctly.
	if next, _, ok := s.lookup(mem.Line(1100)); !ok || next != mem.Line(uint64(1000+1100)<<11) {
		t.Errorf("fresh entry corrupted: %d, %v", next, ok)
	}
	// The stale entry may miss or mispredict, but must not panic.
	s.lookup(first)
}

// TestStoreMatchesReference drives the packed store and the
// pre-packing reference (store_ref_test.go) in lockstep on seeded
// random operation sequences under both policies. Half the triggers
// come from a hot pool twice the size of 4 sets, so entries are
// re-trained, aged and replaced; the rest span far more tags than the
// compressors' 1,024 ids, so ids recycle and old entries resolve to
// the recycled ids' new tags. The 16-way runs let Hawkeye age entries
// to its limit.
func TestStoreMatchesReference(t *testing.T) {
	for _, hawkeye := range []bool{true, false} {
		for _, tc := range []struct {
			maxAssoc, ops int
			seed          int64
		}{{4, 12_000, 1}, {4, 12_000, 2}, {16, 6_000, 3}} {
			name := fmt.Sprintf("hawkeye=%v assoc=%d seed=%d", hawkeye, tc.maxAssoc, tc.seed)
			rng := rand.New(rand.NewSource(tc.seed))
			const pcs = 12
			s := newStore(tc.maxAssoc, hawkeye, replacement.NewPredictor(6))
			ref := newRefStore(tc.maxAssoc, hawkeye, replacement.NewPredictor(6))
			line := func() mem.Line {
				if rng.Intn(2) == 0 {
					return mem.Line(uint64(rng.Intn(2*tc.maxAssoc))<<setBits | uint64(rng.Intn(4)))
				}
				set := uint64(rng.Intn(4))
				if rng.Intn(8) == 0 {
					set = uint64(rng.Intn(metadataSets))
				}
				return mem.Line(uint64(rng.Intn(1<<14))<<setBits | set)
			}
			successor := func(l mem.Line) mem.Line {
				if rng.Intn(4) == 0 {
					return line()
				}
				// One of two successors, so a trained entry meets both
				// agreement and disagreement.
				return l + mem.Line(1+rng.Intn(2))<<setBits
			}
			for op := 0; op < tc.ops; op++ {
				pc := uint64(rng.Intn(pcs)) * 0x40
				var what string
				switch r := rng.Intn(100); {
				case r < 45:
					what = "insert"
					l := line()
					next := successor(l)
					s.insert(l, next, pc)
					ref.insert(l, next, pc)
				case r < 90:
					what = "lookup/promote"
					l := line()
					next, way, ok := s.lookup(l)
					rnext, rway, rok := ref.lookup(l)
					if next != rnext || way != rway || ok != rok {
						t.Fatalf("%s op %d: lookup(%#x) = %#x,%d,%v, reference %#x,%d,%v",
							name, op, l, next, way, ok, rnext, rway, rok)
					}
					if ok && rng.Intn(2) == 0 {
						s.promote(l, way, pc)
						ref.promote(l, way, pc)
					}
				case r < 99:
					// Three PCs in four stay friendly against the
					// detraining of evictions, so Hawkeye mostly ages
					// and evicts friendly entries, not averse ones.
					what = "train"
					for p := uint64(0); p < pcs; p++ {
						for _, pred := range []*replacement.Predictor{s.pred, ref.pred} {
							if p%4 != 3 {
								pred.TrainPositive(p * 0x40)
							} else {
								pred.TrainNegative(p * 0x40)
							}
						}
					}
				default:
					what = "resize"
					assoc := rng.Intn(tc.maxAssoc + 1)
					s.resize(assoc)
					ref.resize(assoc)
				}
				if s.insertions != ref.insertions || s.replacements != ref.replacements {
					t.Fatalf("%s op %d (%s): insertions/replacements %d/%d, reference %d/%d",
						name, op, what, s.insertions, s.replacements, ref.insertions, ref.replacements)
				}
				if got, want := s.occupancy(), ref.occupancy(); got != want {
					t.Fatalf("%s op %d (%s): occupancy %d, reference %d", name, op, what, got, want)
				}
				for p := uint64(0); p < pcs; p++ {
					if got, want := s.pred.Counter(p*0x40), ref.pred.Counter(p*0x40); got != want {
						t.Fatalf("%s op %d (%s): predictor counter of pc %#x = %d, reference %d",
							name, op, what, p*0x40, got, want)
					}
				}
			}
			if s.replacements == 0 || s.nextComp.Recycled() == 0 {
				t.Errorf("%s: sequence never replaced (%d) or recycled (%d)",
					name, s.replacements, s.nextComp.Recycled())
			}
			if err := s.checkInvariants(); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestStoreHostBytesPerEntry pins the host memory an entry costs: the
// 2-byte trigger tag and 4-byte successor word, plus a 1-byte RRPV and
// a 4-byte predictor index under Hawkeye or an 8-byte stamp under LRU.
// It sums every slice the store holds, so a new per-entry field shows.
func TestStoreHostBytesPerEntry(t *testing.T) {
	for _, tc := range []struct {
		hawkeye bool
		want    uintptr
	}{{true, 11}, {false, 14}} {
		const maxAssoc = 4
		s := newStore(maxAssoc, tc.hawkeye, replacement.NewPredictor(10))
		v := reflect.ValueOf(s).Elem()
		var total uintptr
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				total += uintptr(f.Len()) * f.Type().Elem().Size()
			}
		}
		if got := total / (metadataSets * maxAssoc); got != tc.want || total%(metadataSets*maxAssoc) != 0 {
			t.Errorf("hawkeye=%v: %d host bytes for %d entries (%d per entry), want %d per entry",
				tc.hawkeye, total, metadataSets*maxAssoc, got, tc.want)
		}
	}
}

// TestStorePackingPanics: a compressor too wide for the entry format
// can only come from a bug, so it must stop construction.
func TestStorePackingPanics(t *testing.T) {
	for _, w := range []struct{ trig, next uint }{{16, tagBits}, {tagBits, tagBits + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-bit trigger / %d-bit successor tags did not panic", w.trig, w.next)
				}
			}()
			mustFitPacking(mem.NewTagCompressor(w.trig), mem.NewTagCompressor(w.next))
		}()
	}
	mustFitPacking(mem.NewTagCompressor(15), mem.NewTagCompressor(tagBits))
}
