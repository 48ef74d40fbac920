package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func TestLadderValidation(t *testing.T) {
	for _, ladder := range [][]int{
		{1 << 20},              // too short
		{1 << 20, 512 << 10},   // descending
		{512 << 10, 512 << 10}, // equal
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ladder %v accepted", ladder)
				}
			}()
			newTimeShareSizer(ladder, 1000)
		}()
	}
}

// driveLadder feeds a rotating lookup stream of `lines` distinct
// trigger lines. The reuse interval (= lines accesses) must fit within
// one epoch or the time-shared sandboxes never see reuse.
func driveLadder(t *Triage, lines, loads int) {
	for i := 0; i < loads; i++ {
		t.Train(prefetch.Event{PC: 1, Line: mem.Line((i % lines) * 3), Miss: true})
	}
}

func TestLadderClimbsToUsefulSize(t *testing.T) {
	tr := New(Config{Mode: DynamicLadder, EpochAccesses: 450_000})
	// Rotation of 100K entries (~49 per metadata set): more than the
	// 256KB rung holds (32/set), less than 512KB (64/set) — the ladder
	// must climb past 256KB. Epochs span ~4.5 laps so the reuse density
	// is high enough for the rungs to separate.
	driveLadder(tr, 100<<10, 2_700_000)
	if got := tr.DesiredMetadataBytes(); got < 512<<10 {
		t.Errorf("ladder settled at %dKB, want >= 512KB for a 100K-entry rotation", got>>10)
	}
}

func TestLadderFallsToZeroOnStreaming(t *testing.T) {
	tr := New(Config{Mode: DynamicLadder, EpochAccesses: 5000})
	for i := 0; i < 100_000; i++ {
		tr.Train(prefetch.Event{PC: 1, Line: mem.Line(i), Miss: true}) // no reuse
	}
	if got := tr.DesiredMetadataBytes(); got != 0 {
		t.Errorf("ladder kept %dKB on a compulsory-miss stream, want 0", got>>10)
	}
}

func TestLadderName(t *testing.T) {
	tr := New(Config{Mode: DynamicLadder})
	if tr.Name() != "triage-ladder" {
		t.Errorf("Name = %q", tr.Name())
	}
	if tr.DesiredMetadataBytes() != 0 {
		t.Error("initial desire should be 0")
	}
}

func TestLadderPrediction(t *testing.T) {
	// The ladder mode must still prefetch like any Triage: learn a pair
	// and replay it.
	tr := New(Config{Mode: DynamicLadder, EpochAccesses: 20_000})
	// Force the store on by providing dense reuse first.
	ring := make([]mem.Line, 3000)
	for i := range ring {
		ring[i] = mem.Line(i * 11)
	}
	for lap := 0; lap < 30; lap++ {
		for _, l := range ring {
			tr.Train(prefetch.Event{PC: 1, Line: l, Miss: true})
		}
	}
	if tr.DesiredMetadataBytes() == 0 {
		t.Fatal("store never provisioned")
	}
	reqs := tr.Train(prefetch.Event{PC: 1, Line: ring[100], Miss: true})
	if len(reqs) != 1 || reqs[0].Line != ring[101] {
		t.Errorf("ladder-mode prediction = %v, want %d", reqs, ring[101])
	}
}
