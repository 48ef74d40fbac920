package core

import (
	"strings"
	"testing"

	"repro/internal/replacement"
)

func TestStoreCheckInvariants(t *testing.T) {
	s := newStore(8, false, nil)
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("fresh store violates invariants: %v", err)
	}
	s.resize(4)
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("shrunk store violates invariants: %v", err)
	}
	// A valid entry above the shrunk associativity means resize leaked
	// state that lookups must never see.
	s.trig[0*s.maxAssoc+6] = 3
	err := s.checkInvariants()
	if err == nil {
		t.Fatal("resize leak passed the invariant check")
	}
	if !strings.Contains(err.Error(), "resize leak") {
		t.Errorf("violation %q does not identify the leak", err)
	}
}

func TestTriageCheckInvariants(t *testing.T) {
	tr := New(Config{Mode: Static, StaticBytes: 512 << 10})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("fresh Triage violates invariants: %v", err)
	}
	// Desynchronize the store from the partition it is supposed to
	// mirror: the sweep must flag the capacity mismatch.
	tr.store.resize(tr.store.assoc / 2)
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatal("store/partition capacity mismatch passed the invariant check")
	}
	if !strings.Contains(err.Error(), "partition wants") {
		t.Errorf("violation %q does not identify the capacity mismatch", err)
	}
}

// TestStoreCheckInvariantsPolicyArrays: the store holds exactly the
// configured policy's replacement state — RRPVs and predictor indices
// under Hawkeye, stamps under LRU — so a store that grew the other
// policy's array, or lost its own, fails the check.
func TestStoreCheckInvariantsPolicyArrays(t *testing.T) {
	n := metadataSets * 2
	for name, corrupt := range map[string]func() *store{
		"hawkeye+stamp": func() *store {
			s := newStore(2, true, replacement.NewPredictor(10))
			s.stamp = make([]uint64, n)
			return s
		},
		"hawkeye-pcIdx": func() *store {
			s := newStore(2, true, replacement.NewPredictor(10))
			s.pcIdx = nil
			return s
		},
		"lru+rrpv": func() *store {
			s := newStore(2, false, nil)
			s.rrpv = make([]uint8, n)
			return s
		},
		"lru-stamp": func() *store {
			s := newStore(2, false, nil)
			s.stamp = s.stamp[:n/2]
			return s
		},
	} {
		if err := corrupt().checkInvariants(); err == nil {
			t.Errorf("%s: passed the invariant check", name)
		}
	}
	for _, hawkeye := range []bool{true, false} {
		if err := newStore(2, hawkeye, replacement.NewPredictor(10)).checkInvariants(); err != nil {
			t.Errorf("fresh hawkeye=%v store: %v", hawkeye, err)
		}
	}
}
