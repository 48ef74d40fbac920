package core

import (
	"repro/internal/mem"
	"repro/internal/replacement"
)

// refStore is the metadata store as it was before entries were packed
// into the paper's format: one host array per field, full 64-bit PCs,
// and both policies' replacement state kept whichever policy runs. It
// exists only as the reference TestStoreMatchesReference drives the
// packed store against.
type refStore struct {
	trig    []uint32 // compressed trigger tag; refInvalidTrig when empty
	nextSet []uint32 // successor set_id
	nextTag []uint32 // successor compressed tag
	conf    []bool   // 1-bit confidence: replace only after two misses
	rrpv    []uint8  // Hawkeye replacement state
	pc      []uint64 // PC that last touched the entry (Hawkeye)
	stamp   []uint64 // LRU timestamp (used when the store runs LRU)

	assoc        int
	maxAssoc     int
	useHawkeye   bool
	pred         *replacement.Predictor
	trigComp     *mem.TagCompressor
	nextComp     *mem.TagCompressor
	clock        uint64
	insertions   uint64
	replacements uint64
}

const refInvalidTrig = ^uint32(0)

func newRefStore(maxAssoc int, useHawkeye bool, pred *replacement.Predictor) *refStore {
	n := metadataSets * maxAssoc
	s := &refStore{
		trig:       make([]uint32, n),
		nextSet:    make([]uint32, n),
		nextTag:    make([]uint32, n),
		conf:       make([]bool, n),
		rrpv:       make([]uint8, n),
		pc:         make([]uint64, n),
		stamp:      make([]uint64, n),
		assoc:      maxAssoc,
		maxAssoc:   maxAssoc,
		useHawkeye: useHawkeye,
		pred:       pred,
		trigComp:   mem.NewTagCompressor(10),
		nextComp:   mem.NewTagCompressor(10),
	}
	for i := range s.trig {
		s.trig[i] = refInvalidTrig
	}
	return s
}

func (s *refStore) resize(assoc int) {
	if assoc > s.maxAssoc {
		assoc = s.maxAssoc
	}
	if assoc < 0 {
		assoc = 0
	}
	if assoc < s.assoc {
		for i := 0; i < metadataSets; i++ {
			base := i * s.maxAssoc
			for w := assoc; w < s.assoc; w++ {
				s.trig[base+w] = refInvalidTrig
			}
		}
	}
	s.assoc = assoc
}

func (s *refStore) lookup(l mem.Line) (next mem.Line, way int, ok bool) {
	if s.assoc == 0 {
		return 0, -1, false
	}
	tag, okTag := s.trigComp.Lookup(storeTagOf(l))
	if !okTag {
		return 0, -1, false
	}
	base := storeSet(l) * s.maxAssoc
	trig := s.trig[base : base+s.assoc]
	for w := range trig {
		if trig[w] != tag {
			continue
		}
		i := base + w
		full, _ := s.nextComp.Decompress(s.nextTag[i])
		return mem.Line(full<<11 | uint64(s.nextSet[i])), w, true
	}
	return 0, -1, false
}

func (s *refStore) promote(l mem.Line, way int, pc uint64) {
	if way < 0 || way >= s.assoc {
		return
	}
	s.touch(storeSet(l)*s.maxAssoc+way, pc)
}

func (s *refStore) insert(l, next mem.Line, pc uint64) {
	if s.assoc == 0 {
		return
	}
	setIdx := storeSet(l)
	base := setIdx * s.maxAssoc
	trigTag := s.trigComp.Compress(storeTagOf(l))
	nextTag := s.nextComp.Compress(storeTagOf(next))
	nextSet := uint32(storeSet(next))

	trig := s.trig[base : base+s.assoc]
	for w := range trig {
		if trig[w] != trigTag {
			continue
		}
		i := base + w
		if s.nextTag[i] == nextTag && s.nextSet[i] == nextSet {
			s.conf[i] = true
		} else if s.conf[i] {
			s.conf[i] = false
		} else {
			s.nextTag[i], s.nextSet[i] = nextTag, nextSet
			s.conf[i] = true
		}
		s.touch(i, pc)
		return
	}

	w := s.victim(setIdx)
	i := base + w
	if s.trig[i] != refInvalidTrig {
		s.replacements++
		if s.useHawkeye && s.rrpv[i] < storeMaxRRPV {
			s.pred.TrainNegative(s.pc[i])
		}
	}
	s.insertions++
	s.trig[i] = trigTag
	s.nextSet[i] = nextSet
	s.nextTag[i] = nextTag
	s.conf[i] = true
	s.rrpv[i] = 0
	s.touch(i, pc)
}

func (s *refStore) touch(i int, pc uint64) {
	s.clock++
	s.stamp[i] = s.clock
	s.pc[i] = pc
	if s.useHawkeye {
		if s.pred.Friendly(pc) {
			s.rrpv[i] = 0
		} else {
			s.rrpv[i] = storeMaxRRPV
		}
	}
}

func (s *refStore) victim(setIdx int) int {
	base := setIdx * s.maxAssoc
	trig := s.trig[base : base+s.assoc]
	for w := range trig {
		if trig[w] == refInvalidTrig {
			return w
		}
	}
	if !s.useHawkeye {
		victim, oldest := 0, ^uint64(0)
		for w := 0; w < s.assoc; w++ {
			if s.stamp[base+w] < oldest {
				oldest, victim = s.stamp[base+w], w
			}
		}
		return victim
	}
	for w := 0; w < s.assoc; w++ {
		if s.rrpv[base+w] == storeMaxRRPV {
			return w
		}
	}
	victim, maxRRPV := 0, -1
	for w := 0; w < s.assoc; w++ {
		if int(s.rrpv[base+w]) > maxRRPV {
			maxRRPV, victim = int(s.rrpv[base+w]), w
		}
	}
	for w := 0; w < s.assoc; w++ {
		if w != victim && s.rrpv[base+w] < storeMaxRRPV-1 {
			s.rrpv[base+w]++
		}
	}
	return victim
}

func (s *refStore) occupancy() int {
	n := 0
	for i := 0; i < metadataSets; i++ {
		base := i * s.maxAssoc
		for w := 0; w < s.assoc; w++ {
			if s.trig[base+w] != refInvalidTrig {
				n++
			}
		}
	}
	return n
}
