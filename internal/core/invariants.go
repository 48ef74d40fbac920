package core

import "fmt"

// checkInvariants verifies the metadata store's structural invariants:
// the associativity stays inside the allocated backing, the backing is
// either absent (a store never provisioned) or holds exactly the
// configured policy's replacement state for maxAssoc ways, and no
// valid entry survives beyond the current associativity (resize
// invalidates shrunk ways, so residency there means a resize leaked
// state).
func (s *store) checkInvariants() error {
	if s.assoc < 0 || s.assoc > s.maxAssoc {
		return fmt.Errorf("triage store: assoc=%d of max %d", s.assoc, s.maxAssoc)
	}
	want := 0 // a store never provisioned holds no arrays at all
	if s.trig != nil || s.assoc > 0 {
		want = metadataSets * s.maxAssoc
	}
	if len(s.trig) != want || len(s.succ) != want {
		return fmt.Errorf("triage store: entry arrays sized %d/%d at assoc=%d, want %d",
			len(s.trig), len(s.succ), s.assoc, want)
	}
	hawk, lru := 0, want // the lengths each policy's arrays must have
	if s.useHawkeye {
		hawk, lru = want, 0
	}
	if len(s.rrpv) != hawk || len(s.pcIdx) != hawk || len(s.stamp) != lru {
		return fmt.Errorf("triage store: rrpv/pcIdx/stamp sized %d/%d/%d under hawkeye=%v, want %d/%d/%d",
			len(s.rrpv), len(s.pcIdx), len(s.stamp), s.useHawkeye, hawk, hawk, lru)
	}
	if want == 0 {
		return nil
	}
	for i := 0; i < metadataSets; i++ {
		base := i * s.maxAssoc
		for w := s.assoc; w < s.maxAssoc; w++ {
			if s.trig[base+w] != invalidTrig {
				return fmt.Errorf("triage store: set %d way %d valid beyond assoc=%d (resize leak)",
					i, w, s.assoc)
			}
		}
	}
	return nil
}

// CheckInvariants verifies Triage's structural invariants: the
// training unit's LRU structure is intact, the metadata store holds no
// state beyond its current associativity, and — outside Unlimited
// mode — the store's capacity matches the LLC partition the
// prefetcher is asking for (resizes are applied synchronously at epoch
// end, so any divergence means the partition and the store are out of
// sync).
func (t *Triage) CheckInvariants() error {
	if err := t.tu.CheckInvariants(); err != nil {
		return fmt.Errorf("triage training unit: %w", err)
	}
	if t.store == nil {
		return nil
	}
	if err := t.store.checkInvariants(); err != nil {
		return err
	}
	if t.cfg.Mode != Unlimited {
		if got, want := t.store.capacityBytes(), t.DesiredMetadataBytes(); got != want {
			return fmt.Errorf("triage store: capacity %dB but partition wants %dB", got, want)
		}
	}
	return nil
}
