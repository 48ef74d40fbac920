package replacement

import "repro/internal/mem"

// Sandbox runs OPTgen over the sampled sets of one cache at one or more
// modeled capacities. Hawkeye trains its predictor from a one-capacity
// Sandbox at the cache's associativity; Triage's partition estimators
// read OPT's hit counts at their candidate sizes from theirs (paper §3).
//
// A set is sampled when set&(sampleEvery-1) == 0. Its OPTgens, one per
// capacity, are created at its first sampled access and are accessed
// in lockstep. Each sampled set tracks the OPTgen time and PC of the
// last access to at most maxTracked lines; when the table is full, the
// stalest line is dropped before the access is recorded, even when the
// accessed line is already tracked.
//
// A Sandbox holds only plain data (no func values), so the simulator's
// warm-state copier can duplicate it.
type Sandbox struct {
	sampleMask int
	maxTracked int
	caps       []int
	sets       map[int]*sandboxSet
	hits       []uint64 // OPT hits per capacity since the last reset
	accesses   uint64   // sampled accesses since the last reset
}

type sandboxSet struct {
	opt  []*OPTgen // one per capacity
	last map[mem.Line]lastTouch
}

// lastTouch is a tracked line's last access: its OPTgen time and PC.
type lastTouch struct{ time, pc uint64 }

// NewSandbox returns a Sandbox sampling every sampleEvery-th set (a
// power of two), tracking at most maxTracked lines per sampled set, and
// modeling the given capacities (at most 32).
func NewSandbox(sampleEvery, maxTracked int, caps ...int) *Sandbox {
	if !mem.IsPow2(sampleEvery) {
		panic("replacement: sampleEvery must be a power of two")
	}
	s := &Sandbox{sampleMask: sampleEvery - 1, maxTracked: maxTracked}
	s.Rearm(caps...)
	return s
}

// Rearm discards every sampled set's state and the hit counts, and
// models caps from the next access on.
func (s *Sandbox) Rearm(caps ...int) {
	if len(caps) == 0 || len(caps) > 32 {
		panic("replacement: a Sandbox models 1 to 32 capacities")
	}
	s.caps = append([]int(nil), caps...)
	s.sets = make(map[int]*sandboxSet)
	s.hits = make([]uint64, len(caps))
	s.accesses = 0
}

// Touch is the outcome of one access to a sampled set.
type Touch struct {
	// Seen reports whether the line's previous access was tracked;
	// PrevPC is the PC that made it, the PC an OPT outcome trains.
	Seen   bool
	PrevPC uint64
	hits   uint32 // bit i: OPT hit at the i-th capacity
}

// Hit reports whether OPT at the i-th capacity would have hit.
func (t Touch) Hit(i int) bool { return t.hits>>i&1 != 0 }

// Access feeds an access to line l by pc in cache set set. An access to
// an unsampled set is ignored and returns the zero Touch.
func (s *Sandbox) Access(set int, l mem.Line, pc uint64) Touch {
	if set&s.sampleMask != 0 {
		return Touch{}
	}
	ss, ok := s.sets[set]
	if !ok {
		ss = &sandboxSet{opt: make([]*OPTgen, len(s.caps)), last: make(map[mem.Line]lastTouch)}
		for i, c := range s.caps {
			ss.opt[i] = NewOPTgen(c)
		}
		s.sets[set] = ss
	}
	prev, seen := ss.last[l]
	t := Touch{Seen: seen, PrevPC: prev.pc}
	for i, o := range ss.opt {
		if o.Access(prev.time, seen) {
			s.hits[i]++
			t.hits |= 1 << i
		}
	}
	s.accesses++
	if len(ss.last) >= s.maxTracked {
		var oldest mem.Line
		oldestTime := ^uint64(0)
		for line, e := range ss.last {
			if e.time < oldestTime {
				oldestTime, oldest = e.time, line
			}
		}
		delete(ss.last, oldest)
	}
	ss.last[l] = lastTouch{time: ss.opt[0].Now() - 1, pc: pc}
	return t
}

// Hits returns OPT's hits at the i-th capacity since the last reset.
func (s *Sandbox) Hits(i int) uint64 { return s.hits[i] }

// Accesses returns the number of sampled accesses since the last reset.
func (s *Sandbox) Accesses() uint64 { return s.accesses }

// ResetStats clears the hit and access counts, keeping each set's state.
func (s *Sandbox) ResetStats() {
	clear(s.hits)
	s.accesses = 0
}
