package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/replacement"
)

func newTest(sets, ways int) *Cache {
	return New("test", sets, ways, replacement.NewLRU(sets, ways))
}

// TestResultsFitInRegisters pins Eviction and LookupResult within the
// compiler's limits for values it keeps in registers (at most 4 fields
// and 4 words). One field or word more and every Access, Fill and evict
// result goes through the stack on the simulator's hottest path.
func TestResultsFitInRegisters(t *testing.T) {
	for _, v := range []any{Eviction{}, LookupResult{}} {
		typ := reflect.TypeOf(v)
		if n := typ.NumField(); n > 4 {
			t.Errorf("%s has %d fields, want at most 4", typ, n)
		}
		if sz := typ.Size(); sz > 32 {
			t.Errorf("%s is %d bytes, want at most 32", typ, sz)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := newTest(16, 4)
	l := mem.Line(0x1234)
	a := replacement.Access{Line: l, PC: 1}
	if r := c.Access(l, a, 0); r.Hit() {
		t.Fatal("hit on empty cache")
	}
	c.Fill(l, a, false, 10)
	r := c.Access(l, a, 20)
	if !r.Hit() {
		t.Fatal("miss after fill")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses, 1 hit, 1 miss", st)
	}
}

func TestSetConflictEviction(t *testing.T) {
	const sets, ways = 4, 2
	c := newTest(sets, ways)
	// Three lines mapping to set 0.
	l0, l1, l2 := mem.Line(0), mem.Line(sets), mem.Line(2*sets)
	for _, l := range []mem.Line{l0, l1, l2} {
		c.Fill(l, replacement.Access{Line: l}, false, 0)
	}
	if c.Probe(l0) {
		t.Error("l0 should have been evicted (LRU)")
	}
	if !c.Probe(l1) || !c.Probe(l2) {
		t.Error("l1 and l2 should be resident")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := newTest(2, 1)
	l0, l1 := mem.Line(0), mem.Line(2)
	c.Fill(l0, replacement.Access{Line: l0}, true, 0)
	ev := c.Fill(l1, replacement.Access{Line: l1}, false, 0)
	if !ev.Valid() || !ev.Dirty() || ev.Line != l0 {
		t.Errorf("eviction = %+v, want dirty l0", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestEvictionReconstructsLineAddress(t *testing.T) {
	f := func(raw uint64) bool {
		c := newTest(64, 1)
		l := mem.Line(raw >> 6)
		c.Fill(l, replacement.Access{Line: l}, false, 0)
		// Force eviction by filling a conflicting line.
		l2 := l + 64
		ev := c.Fill(l2, replacement.Access{Line: l2}, false, 0)
		return ev.Valid() && ev.Line == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefetchProvenance(t *testing.T) {
	c := newTest(16, 4)
	l := mem.Line(99)
	pf := replacement.Access{Line: l, PC: 0xCAFE, Prefetch: true}
	c.Fill(l, pf, false, 100)
	// First demand use consumes provenance and reports the trigger PC.
	r := c.Access(l, replacement.Access{Line: l, PC: 1}, 50)
	if !r.Hit() || !r.WasPrefetch() || r.PrefetchPC != 0xCAFE {
		t.Errorf("result = %+v, want prefetch hit with PC 0xCAFE", r)
	}
	if !r.Late() {
		t.Error("demand at tick 50 against fill ready at 100 should be late")
	}
	// Second use is an ordinary hit.
	r = c.Access(l, replacement.Access{Line: l, PC: 1}, 200)
	if r.WasPrefetch() {
		t.Error("prefetch provenance should be consumed by first use")
	}
	st := c.Stats()
	if st.PrefetchFills != 1 || st.PrefetchUsed != 1 || st.LatePrefetches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnusedPrefetchCountedOnEviction(t *testing.T) {
	c := newTest(2, 1)
	l0, l1 := mem.Line(0), mem.Line(2)
	c.Fill(l0, replacement.Access{Line: l0, Prefetch: true}, false, 0)
	ev := c.Fill(l1, replacement.Access{Line: l1}, false, 0)
	if !ev.Prefetch() {
		t.Error("eviction should be flagged as unused prefetch")
	}
	if c.Stats().PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", c.Stats().PrefetchUnused)
	}
}

func TestRefillDoesNotDuplicate(t *testing.T) {
	c := newTest(16, 4)
	l := mem.Line(7)
	c.Fill(l, replacement.Access{Line: l}, false, 100)
	ev := c.Fill(l, replacement.Access{Line: l}, true, 50)
	if ev.Valid() {
		t.Error("refill of resident line reported an eviction")
	}
	if c.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", c.Occupancy())
	}
	// Refill should have taken the earlier ready tick and the dirty bit.
	r := c.Access(l, replacement.Access{Line: l}, 60)
	if r.ReadyTick != 50 {
		t.Errorf("ReadyTick = %d, want 50", r.ReadyTick)
	}
}

func TestMarkDirtyCausesWriteback(t *testing.T) {
	c := newTest(2, 1)
	l := mem.Line(0)
	c.Fill(l, replacement.Access{Line: l}, false, 0)
	c.MarkDirty(l)
	ev := c.Fill(mem.Line(2), replacement.Access{Line: 2}, false, 0)
	if !ev.Dirty() {
		t.Error("store-dirtied line evicted clean")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(16, 2)
	l := mem.Line(5)
	c.Fill(l, replacement.Access{Line: l}, true, 0)
	ev := c.Invalidate(l)
	if !ev.Valid() || !ev.Dirty() || ev.Line != l {
		t.Errorf("Invalidate = %+v", ev)
	}
	if c.Probe(l) {
		t.Error("line still resident after Invalidate")
	}
	if ev := c.Invalidate(l); ev.Valid() {
		t.Error("second Invalidate found a line")
	}
}

func TestSetDataWaysShrinkFlushes(t *testing.T) {
	const sets, ways = 4, 4
	c := newTest(sets, ways)
	// Fill all 16 slots; make some dirty.
	for i := 0; i < sets*ways; i++ {
		l := mem.Line(i)
		c.Fill(l, replacement.Access{Line: l}, i%2 == 0, 0)
	}
	if c.Occupancy() != sets*ways {
		t.Fatalf("occupancy = %d, want %d", c.Occupancy(), sets*ways)
	}
	evs := c.SetDataWays(2)
	if len(evs) != sets*2 {
		t.Errorf("displaced %d lines, want %d", len(evs), sets*2)
	}
	dirty := 0
	for _, ev := range evs {
		if ev.Dirty() {
			dirty++
		}
	}
	if dirty == 0 {
		t.Error("no dirty lines among displaced; flush not modeled")
	}
	if c.DataWays() != 2 {
		t.Errorf("DataWays = %d, want 2", c.DataWays())
	}
	if got := c.Occupancy(); got != sets*2 {
		t.Errorf("occupancy after shrink = %d, want %d", got, sets*2)
	}
	// New fills must stay within the reduced ways.
	for i := 100; i < 140; i++ {
		l := mem.Line(i)
		c.Fill(l, replacement.Access{Line: l}, false, 0)
	}
	if got := c.Occupancy(); got > sets*2 {
		t.Errorf("occupancy %d exceeds partition %d", got, sets*2)
	}
}

func TestSetDataWaysGrow(t *testing.T) {
	c := newTest(4, 4)
	c.SetDataWays(2)
	evs := c.SetDataWays(4)
	if len(evs) != 0 {
		t.Errorf("growing displaced %d lines, want 0", len(evs))
	}
	if c.DataWays() != 4 {
		t.Errorf("DataWays = %d, want 4", c.DataWays())
	}
}

func TestSetDataWaysValidation(t *testing.T) {
	c := newTest(4, 4)
	for _, n := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetDataWays(%d) did not panic", n)
				}
			}()
			c.SetDataWays(n)
		}()
	}
}

func TestGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with non-pow2 sets did not panic")
		}
	}()
	New("bad", 3, 4, replacement.NewLRU(3, 4))
}

// Property: cache occupancy never exceeds sets*dataWays and hits are
// always for lines previously filled and not yet evicted.
func TestCacheCoherenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const sets, ways = 8, 2
		c := newTest(sets, ways)
		resident := map[mem.Line]bool{}
		for _, op := range ops {
			l := mem.Line(op % 64)
			a := replacement.Access{Line: l, PC: uint64(op % 7)}
			r := c.Access(l, a, 0)
			if r.Hit() != resident[l] {
				return false
			}
			if !r.Hit() {
				ev := c.Fill(l, a, false, 0)
				resident[l] = true
				if ev.Valid() {
					delete(resident, ev.Line)
				}
			}
			if c.Occupancy() > sets*ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
