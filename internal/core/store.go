package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/replacement"
)

// metadataSets is the number of sets in Triage's metadata store. The
// paper indexes metadata by the trigger address's 11-bit set_id
// (§3.2), i.e. 2048 sets; entries within a set are packed 16-per-LLC-
// line and matched by compressed sub-tags.
const metadataSets = 2048

// bytesPerEntry is the paper's 4-byte metadata entry: compressed
// trigger tag (10b) + successor set_id (11b) + successor compressed tag
// (10b) + 1-bit confidence.
const bytesPerEntry = 4

// The successor word holds the entry's other three fields in the
// paper's layout: set_id in the low setBits, the compressed successor
// tag in the next tagBits, and the confidence bit on top.
const (
	setBits = 11 // log2(metadataSets)
	tagBits = 10 // compressed tag width (paper §3.2)
	setMask = 1<<setBits - 1
	tagMask = 1<<tagBits - 1
	confBit = uint32(1) << 31
)

// invalidTrig marks an empty way in the trigger-tag array. Compressed
// tags are below it (mustFitPacking), so the residency scan needs no
// separate valid flag.
const invalidTrig = ^uint16(0)

const storeMaxRRPV = 7

// store is Triage's on-chip metadata table. Capacity is expressed in
// entries per set; the sets mirror the LLC's set decomposition so that
// each set maps onto metadata ways of the corresponding LLC sets.
//
// Layout: per-way state lives in flat arrays indexed set*maxAssoc + way
// and holds an entry in the format it models. The lookup scan — the
// hottest loop of a Triage run — touches only the 2-byte trigger-tag
// array; the rest of the entry is one 4-byte successor word. Only the
// configured policy's replacement state exists: Hawkeye keeps an RRPV
// and the predictor-counter index of the PC that last touched the
// entry (11 host bytes per entry), LRU a timestamp (14 bytes). A store
// starts with no ways and no arrays; the first resize above 0 ways
// allocates them for maxAssoc, so a store the partitioner never
// provisions costs no host memory (nor any in a warm snapshot).
type store struct {
	trig []uint16 // compressed trigger tag; invalidTrig when empty
	succ []uint32 // set_id | successor tag<<setBits | confBit

	rrpv  []uint8  // Hawkeye only: re-reference prediction value
	pcIdx []uint32 // Hawkeye only: predictor index of the last PC
	stamp []uint64 // LRU only: last-touch timestamp

	assoc        int // current entries per set
	maxAssoc     int
	useHawkeye   bool
	pred         *replacement.Predictor
	trigComp     *mem.TagCompressor
	nextComp     *mem.TagCompressor
	clock        uint64
	insertions   uint64
	replacements uint64
}

// newStore returns an unprovisioned store of up to maxAssoc entries
// per set; resize provisions it.
func newStore(maxAssoc int, useHawkeye bool, pred *replacement.Predictor) *store {
	s := &store{
		maxAssoc:   maxAssoc,
		useHawkeye: useHawkeye,
		pred:       pred,
		trigComp:   mem.NewTagCompressor(tagBits),
		nextComp:   mem.NewTagCompressor(tagBits),
	}
	mustFitPacking(s.trigComp, s.nextComp)
	return s
}

// alloc sizes the entry and replacement arrays for maxAssoc ways, every
// way empty. Until the first provisioning no operation reads or writes
// them (lookup and insert stop at 0 ways), so allocating late leaves
// every result as an eagerly allocated store would give.
func (s *store) alloc() {
	n := metadataSets * s.maxAssoc
	s.trig = make([]uint16, n)
	s.succ = make([]uint32, n)
	if s.useHawkeye {
		s.rrpv = make([]uint8, n)
		s.pcIdx = make([]uint32, n)
	} else {
		s.stamp = make([]uint64, n)
	}
	for i := range s.trig {
		s.trig[i] = invalidTrig
	}
}

// mustFitPacking panics unless the compressors' ids fit the entry
// format: trigger ids below invalidTrig, successor ids in tagBits.
func mustFitPacking(trig, next *mem.TagCompressor) {
	if trig.Capacity() > int(invalidTrig) || next.Bits() > tagBits {
		panic(fmt.Sprintf("core: %d-bit trigger and %d-bit successor tags do not fit the metadata entry",
			trig.Bits(), next.Bits()))
	}
}

func storeSet(l mem.Line) int      { return int(uint64(l) & setMask) }
func storeTagOf(l mem.Line) uint64 { return uint64(l) >> setBits }

// resize changes the per-set associativity; shrinking invalidates
// entries in the removed ways (the paper marks them invalid
// immediately). The first resize above 0 ways allocates the arrays,
// which then stay for the store's life.
func (s *store) resize(assoc int) {
	if assoc > s.maxAssoc {
		assoc = s.maxAssoc
	}
	if assoc < 0 {
		assoc = 0
	}
	if assoc > 0 && s.trig == nil {
		s.alloc()
	}
	if assoc < s.assoc {
		for i := 0; i < metadataSets; i++ {
			base := i * s.maxAssoc
			for w := assoc; w < s.assoc; w++ {
				s.trig[base+w] = invalidTrig
			}
		}
	}
	s.assoc = assoc
}

// capacityBytes returns the store's current capacity.
func (s *store) capacityBytes() int { return s.assoc * metadataSets * bytesPerEntry }

// lookup finds the successor of trigger line l. It returns the
// successor and the way index; ok is false on a metadata miss.
func (s *store) lookup(l mem.Line) (next mem.Line, way int, ok bool) {
	if s.assoc == 0 {
		return 0, -1, false
	}
	id, okTag := s.trigComp.Lookup(storeTagOf(l))
	if !okTag {
		return 0, -1, false
	}
	tag := uint16(id)
	base := storeSet(l) * s.maxAssoc
	trig := s.trig[base : base+s.assoc]
	for w := range trig {
		if trig[w] != tag {
			continue
		}
		i := base + w
		succ := s.succ[i]
		// Every stored id was handed out by Compress, so it resolves;
		// a recycled id resolves to its new tag (a misprediction, as in
		// hardware).
		full, _ := s.nextComp.Decompress(succ >> setBits & tagMask)
		return mem.Line(full<<setBits | uint64(succ&setMask)), w, true
	}
	return 0, -1, false
}

// promote updates replacement state for a useful access to (setIdx, way).
func (s *store) promote(l mem.Line, way int, pc uint64) {
	if way < 0 || way >= s.assoc {
		return
	}
	s.touch(storeSet(l)*s.maxAssoc+way, pc)
}

// insert records the correlation l -> next under the 1-bit confidence
// policy: an existing entry's successor changes only after two
// consecutive disagreements. A miss allocates a way, counting a
// replacement when it evicts a valid entry.
func (s *store) insert(l, next mem.Line, pc uint64) {
	if s.assoc == 0 {
		return
	}
	setIdx := storeSet(l)
	base := setIdx * s.maxAssoc
	trigTag := uint16(s.trigComp.Compress(storeTagOf(l)))
	succ := s.nextComp.Compress(storeTagOf(next))<<setBits | uint32(storeSet(next))

	trig := s.trig[base : base+s.assoc]
	for w := range trig {
		if trig[w] != trigTag {
			continue
		}
		i := base + w
		switch cur := s.succ[i]; {
		case cur&^confBit == succ, cur&confBit == 0:
			// Agreement, or a second disagreement: (re)store the
			// successor with confidence.
			s.succ[i] = succ | confBit
		default:
			// First disagreement: keep the successor, drop confidence.
			s.succ[i] = cur &^ confBit
		}
		s.touch(i, pc)
		return
	}

	// Miss: allocate a way.
	w := s.victim(setIdx)
	i := base + w
	if s.trig[i] != invalidTrig {
		s.replacements++
		if s.useHawkeye && s.rrpv[i] < storeMaxRRPV {
			// Evicting a metadata entry predicted useful detrains the
			// PC that last touched it (Hawkeye's eviction feedback).
			s.pred.TrainNegativeAt(s.pcIdx[i])
		}
	}
	s.insertions++
	s.trig[i] = trigTag
	s.succ[i] = succ | confBit
	s.touch(i, pc)
}

// touch records an access by pc in the policy's replacement state.
func (s *store) touch(i int, pc uint64) {
	if !s.useHawkeye {
		s.clock++
		s.stamp[i] = s.clock
		return
	}
	s.pcIdx[i] = s.pred.Index(pc)
	if s.pred.Friendly(pc) {
		s.rrpv[i] = 0
	} else {
		s.rrpv[i] = storeMaxRRPV
	}
}

// victim picks a way to replace in setIdx.
func (s *store) victim(setIdx int) int {
	base := setIdx * s.maxAssoc
	trig := s.trig[base : base+s.assoc]
	for w := range trig {
		if trig[w] == invalidTrig {
			return w
		}
	}
	if !s.useHawkeye {
		// LRU
		victim, oldest := 0, ^uint64(0)
		for w, st := range s.stamp[base : base+s.assoc] {
			if st < oldest {
				oldest, victim = st, w
			}
		}
		return victim
	}
	// Hawkeye: evict an averse entry (RRPV==max), else the oldest
	// friendly one.
	rrpv := s.rrpv[base : base+s.assoc]
	for w, r := range rrpv {
		if r == storeMaxRRPV {
			return w
		}
	}
	victim, maxRRPV := 0, -1
	for w, r := range rrpv {
		if int(r) > maxRRPV {
			maxRRPV, victim = int(r), w
		}
	}
	// Age friendly entries so they form an insertion order.
	for w, r := range rrpv {
		if w != victim && r < storeMaxRRPV-1 {
			rrpv[w]++
		}
	}
	return victim
}

// occupancy counts valid entries (tests).
func (s *store) occupancy() int {
	if s.assoc == 0 {
		return 0 // an unprovisioned store may have no arrays to scan
	}
	n := 0
	for i := 0; i < metadataSets; i++ {
		base := i * s.maxAssoc
		for _, t := range s.trig[base : base+s.assoc] {
			if t != invalidTrig {
				n++
			}
		}
	}
	return n
}
