package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

// TestUtilityRefusesCapacityBoundLoop reproduces the bzip2 pathology
// (paper Fig. 8): a loop whose lines have heavy temporal reuse — so
// plain Dynamic provisions a store — but whose reuse would have been
// LLC hits anyway, so the partition only destroys data hit rate. The
// utility-aware extension must keep the store off.
func TestUtilityRefusesCapacityBoundLoop(t *testing.T) {
	// A loop over 20K lines: fits a 2MB LLC (32K lines), does not fit
	// once a store is carved out.
	ring := make([]mem.Line, 20<<10)
	for i := range ring {
		ring[i] = mem.Line(i)
	}
	feedLoop := func(tr *Triage, laps int) {
		for lap := 0; lap < laps; lap++ {
			for _, l := range ring {
				tr.Train(prefetch.Event{PC: 1, Line: l, Miss: true})
			}
		}
	}

	dyn := New(Config{Mode: Dynamic, EpochAccesses: 10000})
	feedLoop(dyn, 10)
	if dyn.DesiredMetadataBytes() == 0 {
		t.Fatal("baseline Dynamic did not provision a store on the reuse loop (test premise broken)")
	}

	util := New(Config{Mode: DynamicUtility, EpochAccesses: 10000})
	feedLoop(util, 10)
	if got := util.DesiredMetadataBytes(); got != 0 {
		t.Errorf("DynamicUtility provisioned %d bytes on an LLC-resident loop, want 0", got)
	}
}

// TestUtilityProvisionsWhenLLCIsWorthless drives a chase whose
// footprint dwarfs the LLC: data hit rates are near zero at every
// capacity, so the metadata gain wins and a store is provisioned.
func TestUtilityProvisionsWhenLLCIsWorthless(t *testing.T) {
	ring := make([]mem.Line, 120<<10) // 7.5MB >> 2MB LLC
	for i := range ring {
		ring[i] = mem.Line(i * 7)
	}
	tr := New(Config{Mode: DynamicUtility, EpochAccesses: 10000})
	for lap := 0; lap < 6; lap++ {
		for _, l := range ring {
			tr.Train(prefetch.Event{PC: 1, Line: l, Miss: true})
		}
	}
	if got := tr.DesiredMetadataBytes(); got == 0 {
		t.Error("DynamicUtility refused a store despite worthless LLC and heavy metadata reuse")
	}
}

func TestUtilityModeName(t *testing.T) {
	tr := New(Config{Mode: DynamicUtility})
	if tr.Name() != "triage-dynutil" {
		t.Errorf("Name = %q", tr.Name())
	}
	if tr.DesiredMetadataBytes() != 0 {
		t.Error("initial desire should be 0")
	}
}

func TestDataUtilityLossOrdering(t *testing.T) {
	// Larger partitions can never lose less data hit rate than smaller
	// ones on the same stream.
	u := newDataUtility(16, 4, 8)
	state := uint64(3)
	for i := 0; i < 200000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u.observe(mem.Line(state % (24 << 10)))
	}
	if u.opt.Accesses() == 0 {
		t.Fatal("no sampled observations")
	}
	if u.lossAt(true) < u.lossAt(false) {
		t.Errorf("lossAt(large)=%.4f < lossAt(small)=%.4f", u.lossAt(true), u.lossAt(false))
	}
}

func TestDataUtilityClampsWays(t *testing.T) {
	// Degenerate requests: unclamped, the reduced-LLC models would get
	// zero or negative ways and OPTgen would panic at the first sampled
	// access (set 0).
	u := newDataUtility(16, 16, 20)
	u.observe(0)
	if u.opt.Accesses() != 1 {
		t.Errorf("sampled accesses = %d, want 1", u.opt.Accesses())
	}
}
