package sms

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func miss(pc uint64, line mem.Line) prefetch.Event {
	return prefetch.Event{PC: pc, Line: line, Miss: true}
}

// touchRegion accesses offsets within region r (by region number).
func touchRegion(p *Prefetcher, pc uint64, region uint64, offsets []int) []prefetch.Request {
	var last []prefetch.Request
	for _, o := range offsets {
		last = p.Train(miss(pc, mem.Line(region*RegionLines)+mem.Line(o)))
	}
	return last
}

func TestReplaysLearnedFootprint(t *testing.T) {
	p := New(WithTableSizes(1, 100)) // AGT of 1 retires generations fast
	// Teach the footprint {0, 3, 9} for PC 0x42 triggered at offset 0.
	touchRegion(p, 0x42, 1, []int{0, 3, 9})
	// Opening region 2 retires region 1's generation into the PHT; then
	// opening region 3 (same trigger offset, same PC) replays it.
	touchRegion(p, 0x42, 2, []int{0})
	reqs := touchRegion(p, 0x42, 3, []int{0})
	want := map[mem.Line]bool{
		3*RegionLines + 3: true,
		3*RegionLines + 9: true,
	}
	if len(reqs) != 2 {
		t.Fatalf("replay produced %d requests, want 2: %v", len(reqs), reqs)
	}
	for _, r := range reqs {
		if !want[r.Line] {
			t.Errorf("unexpected prefetch %d", r.Line)
		}
	}
}

func TestFootprintKeyedByPCAndOffset(t *testing.T) {
	p := New(WithTableSizes(1, 100))
	touchRegion(p, 0x42, 1, []int{0, 5})
	touchRegion(p, 0x42, 2, []int{0})
	// Different PC must not replay PC 0x42's footprint.
	reqs := touchRegion(p, 0x99, 3, []int{0})
	if len(reqs) != 0 {
		t.Errorf("foreign PC replayed footprint: %v", reqs)
	}
	// Different trigger offset must not replay either.
	reqs = touchRegion(p, 0x42, 4, []int{1})
	if len(reqs) != 0 {
		t.Errorf("different trigger offset replayed footprint: %v", reqs)
	}
}

func TestDegreeCapsReplay(t *testing.T) {
	p := New(WithTableSizes(1, 100))
	p.SetDegree(2)
	touchRegion(p, 0x1, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	touchRegion(p, 0x1, 2, []int{0})
	reqs := touchRegion(p, 0x1, 3, []int{0})
	if len(reqs) != 2 {
		t.Errorf("degree 2: replayed %d lines", len(reqs))
	}
	// Nearest offsets first.
	if len(reqs) == 2 && (reqs[0].Line != 3*RegionLines+1 || reqs[1].Line != 3*RegionLines+2) {
		t.Errorf("replay order %v, want nearest-first", reqs)
	}
}

func TestNoPrefetchWithinActiveGeneration(t *testing.T) {
	p := New()
	reqs := touchRegion(p, 0x1, 1, []int{0, 1, 2})
	if len(reqs) != 0 {
		t.Errorf("accesses within an active generation prefetched: %v", reqs)
	}
}

func TestPointerChaseDefeatsSMS(t *testing.T) {
	// A pointer chase touches each region once at a varying offset: SMS
	// learns nothing useful. This is the behavioral gap Fig. 5 shows.
	p := New()
	issued := 0
	state := uint64(99)
	for i := 0; i < 5000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		issued += len(p.Train(miss(0x7, mem.Line(state>>16))))
	}
	if issued > 250 { // <5% of triggers
		t.Errorf("SMS issued %d prefetches on a pointer chase, want almost none", issued)
	}
}

func TestPHTBound(t *testing.T) {
	p := New(WithTableSizes(1, 8))
	for r := uint64(0); r < 100; r++ {
		touchRegion(p, uint64(r), r, []int{0, 1})
	}
	if p.pht.Len() > 8 {
		t.Errorf("PHT grew to %d entries, bound 8", p.pht.Len())
	}
}

var (
	_ prefetch.Prefetcher   = (*Prefetcher)(nil)
	_ prefetch.DegreeSetter = (*Prefetcher)(nil)
)

// TestFullPHTDeterministic: with the PHT at its cap every retired
// generation evicts a pattern. The victim must be a function of the
// access stream, so the same stream replays the same footprints.
func TestFullPHTDeterministic(t *testing.T) {
	run := func() []prefetch.Request {
		rng := rand.New(rand.NewSource(1))
		p := New(WithTableSizes(1, 8))
		var out []prefetch.Request
		for r := uint64(0); r < 5_000; r++ {
			pc := uint64(rng.Intn(12))
			first := rng.Intn(4)
			for _, o := range []int{first, first + 1 + int(pc%3), 9} {
				out = append(out, p.Train(miss(pc, mem.Line(r*RegionLines)+mem.Line(o)))...)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no prefetches: no pattern was ever replayed")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the same stream gave %d then %d requests", len(a), len(b))
	}
}
