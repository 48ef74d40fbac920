package replacement

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refSampleEntry, refSetSampler and refHawkeye reproduce Hawkeye's
// per-set OPTgen sampler as it was before the Sandbox, returning the
// training it would apply instead of applying it.
type refSampleEntry struct {
	time uint64
	pc   uint64
}

type refSetSampler struct {
	opt  *OPTgen
	last map[mem.Line]refSampleEntry
	cap  int
}

type refHawkeye struct {
	ways       int
	sampleMask int
	samplers   map[int]*refSetSampler
}

func (h *refHawkeye) sampled(set int) bool { return set&h.sampleMask == 0 }

func (h *refHawkeye) sampler(set int) *refSetSampler {
	s, ok := h.samplers[set]
	if !ok {
		s = &refSetSampler{
			opt:  NewOPTgen(h.ways),
			last: make(map[mem.Line]refSampleEntry),
			cap:  16 * h.ways,
		}
		h.samplers[set] = s
	}
	return s
}

func (h *refHawkeye) observe(set int, a Access) (seen, optHit bool, pc uint64) {
	s := h.sampler(set)
	prev, seen := s.last[a.Line]
	optHit = s.opt.Access(prev.time, seen)
	if len(s.last) >= s.cap {
		var oldest mem.Line
		oldestTime := ^uint64(0)
		for l, e := range s.last {
			if e.time < oldestTime {
				oldestTime, oldest = e.time, l
			}
		}
		delete(s.last, oldest)
	}
	s.last[a.Line] = refSampleEntry{time: s.opt.Now() - 1, pc: a.PC}
	return seen, optHit, prev.pc
}

// refSizer reproduces the sampled-set model of Triage's partition sizer
// as it was before the Sandbox: two OPTgens per sampled metadata set
// (the small and the large store) sharing one last-touch table.
type refSizer struct {
	sampleMask int
	small      map[int]*OPTgen
	large      map[int]*OPTgen
	last       map[int]map[mem.Line]refSampleEntry
	lastCap    int

	smallAssoc int
	largeAssoc int

	hitsSmall uint64
	hitsLarge uint64
	total     uint64
}

const refMetadataSets = 2048

func (z *refSizer) observe(l mem.Line, pc uint64) (seen, hitSmall, hitLarge bool, prevPC uint64) {
	set := int(uint64(l) & (refMetadataSets - 1))
	if set&z.sampleMask != 0 {
		return false, false, false, 0
	}
	so, ok := z.small[set]
	if !ok {
		so = NewOPTgen(z.smallAssoc)
		z.small[set] = so
		z.large[set] = NewOPTgen(z.largeAssoc)
		z.last[set] = make(map[mem.Line]refSampleEntry)
	}
	lo := z.large[set]
	lastTimes := z.last[set]
	prev, seen := lastTimes[l]
	hitSmall = so.Access(prev.time, seen)
	hitLarge = lo.Access(prev.time, seen)
	if hitSmall {
		z.hitsSmall++
	}
	if hitLarge {
		z.hitsLarge++
	}
	z.total++
	if len(lastTimes) >= z.lastCap {
		var oldest mem.Line
		oldestT := ^uint64(0)
		for line, t := range lastTimes {
			if t.time < oldestT {
				oldestT, oldest = t.time, line
			}
		}
		delete(lastTimes, oldest)
	}
	lastTimes[l] = refSampleEntry{time: so.Now() - 1, pc: pc}
	return seen, hitSmall, hitLarge, prev.pc
}

// sameTracked reports whether a sandbox set tracks exactly the
// reference's lines, times and PCs.
func sameTracked(got map[mem.Line]lastTouch, want map[mem.Line]refSampleEntry) bool {
	if len(got) != len(want) {
		return false
	}
	for l, w := range want {
		if g, ok := got[l]; !ok || g.time != w.time || g.pc != w.pc {
			return false
		}
	}
	return true
}

// trimStream returns accesses to a few sets, drawn from pools slightly
// larger than bound lines per set, so the tracked tables fill, trim, and
// see re-accesses of tracked lines while full.
func trimStream(rng *rand.Rand, sets []int, setStride, bound, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		set := sets[rng.Intn(len(sets))]
		k := rng.Intn(bound + bound/2)
		out[i] = Access{Line: mem.Line(set + k*setStride), PC: uint64(rng.Intn(7))}
	}
	return out
}

// TestSandboxMatchesHawkeyeSampler drives a one-capacity Sandbox in
// lockstep with Hawkeye's former sampler, past the tracking bound, and
// after every access compares the training, the hit counts and the
// tracked lines.
func TestSandboxMatchesHawkeyeSampler(t *testing.T) {
	for _, ways := range []int{1, 2, 4} {
		const sampleEvery, sets = 4, 16
		ref := &refHawkeye{ways: ways, sampleMask: sampleEvery - 1, samplers: map[int]*refSetSampler{}}
		s := NewSandbox(sampleEvery, 16*ways, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		var hits uint64
		var trims, fullReaccesses int
		for i, a := range trimStream(rng, []int{0, 4, 5}, sets, 16*ways, 20000) {
			set := int(uint64(a.Line) % sets)
			got := s.Access(set, a.Line, a.PC)
			if !ref.sampled(set) {
				if got != (Touch{}) {
					t.Fatalf("ways %d access %d: unsampled set %d returned %+v", ways, i, set, got)
				}
				continue
			}
			rs := ref.sampler(set)
			full := len(rs.last) >= rs.cap
			seen, optHit, pc := ref.observe(set, a)
			if full {
				trims++
				if seen {
					fullReaccesses++
				}
			}
			if optHit {
				hits++
			}
			if got.Seen != seen || got.Hit(0) != optHit || got.PrevPC != pc {
				t.Fatalf("ways %d access %d: touch %+v hit %v, want seen %v hit %v pc %d",
					ways, i, got, got.Hit(0), seen, optHit, pc)
			}
			if s.Hits(0) != hits {
				t.Fatalf("ways %d access %d: %d hits, want %d", ways, i, s.Hits(0), hits)
			}
			if !sameTracked(s.sets[set].last, rs.last) {
				t.Fatalf("ways %d access %d: set %d tracks %v, want %v", ways, i, set, s.sets[set].last, rs.last)
			}
		}
		if trims == 0 || fullReaccesses == 0 {
			t.Fatalf("ways %d: %d trims, %d re-accesses while full; the stream must reach both", ways, trims, fullReaccesses)
		}
	}
}

// TestSandboxMatchesSizer drives a two-capacity Sandbox in lockstep
// with the sizer's former sampled-set model, past the tracking bound
// (small bounds, and the real 2,048 at 512KB and 1MB stores), and after
// every access compares the hint inputs, the hit counts and the tracked
// lines.
func TestSandboxMatchesSizer(t *testing.T) {
	for _, tc := range []struct{ small, large, bound, n int }{
		{1, 2, 8, 20000},
		{2, 4, 24, 20000},
		{64, 128, 2048, 10000},
	} {
		ref := &refSizer{
			sampleMask: 63,
			small:      map[int]*OPTgen{},
			large:      map[int]*OPTgen{},
			last:       map[int]map[mem.Line]refSampleEntry{},
			lastCap:    tc.bound,
			smallAssoc: tc.small,
			largeAssoc: tc.large,
		}
		s := NewSandbox(64, tc.bound, tc.small, tc.large)
		rng := rand.New(rand.NewSource(int64(tc.bound)))
		sets := []int{0, 64}
		if tc.bound > 100 {
			sets = []int{0} // one set fills the large table sooner
		}
		var trims, fullReaccesses int
		for i, a := range trimStream(rng, append(sets, 1), refMetadataSets, tc.bound, tc.n) {
			set := int(uint64(a.Line) % refMetadataSets)
			full := set&63 == 0 && ref.last[set] != nil && len(ref.last[set]) >= tc.bound
			seen, hitSmall, hitLarge, pc := ref.observe(a.Line, a.PC)
			if full {
				trims++
				if seen {
					fullReaccesses++
				}
			}
			got := s.Access(set, a.Line, a.PC)
			if got.Seen != seen || got.Hit(0) != hitSmall || got.Hit(1) != hitLarge || got.PrevPC != pc {
				t.Fatalf("%+v access %d: touch %+v hits %v/%v, want seen %v hits %v/%v pc %d",
					tc, i, got, got.Hit(0), got.Hit(1), seen, hitSmall, hitLarge, pc)
			}
			if s.Hits(0) != ref.hitsSmall || s.Hits(1) != ref.hitsLarge || s.Accesses() != ref.total {
				t.Fatalf("%+v access %d: hits %d/%d of %d, want %d/%d of %d", tc, i,
					s.Hits(0), s.Hits(1), s.Accesses(), ref.hitsSmall, ref.hitsLarge, ref.total)
			}
			if set&63 == 0 && !sameTracked(s.sets[set].last, ref.last[set]) {
				t.Fatalf("%+v access %d: set %d tracked lines differ", tc, i, set)
			}
		}
		if trims == 0 || fullReaccesses == 0 {
			t.Fatalf("%+v: %d trims, %d re-accesses while full; the stream must reach both", tc, trims, fullReaccesses)
		}
	}
}

// beladyHits returns, for each access of stream, whether Belady's MIN
// with bypass at the given capacity hits. A reuse at least window
// accesses after the line's previous access is renamed to a fresh line
// first, since OPTgen sees only that far back.
func beladyHits(stream []mem.Line, capacity, window int) []bool {
	n := len(stream)
	ids := make([]int, n)
	prevAt := map[mem.Line]int{}
	name := map[mem.Line]int{}
	for t, l := range stream {
		if p, ok := prevAt[l]; !ok || t-p >= window {
			name[l] = t // a fresh name: no earlier access has it
		}
		ids[t] = name[l]
		prevAt[l] = t
	}
	next := make([]int, n) // time of the next access to ids[t]; n if none
	nextAt := map[int]int{}
	for t := n - 1; t >= 0; t-- {
		next[t] = n
		if u, ok := nextAt[ids[t]]; ok {
			next[t] = u
		}
		nextAt[ids[t]] = t
	}
	cache := map[int]int{} // resident id -> its next use
	hits := make([]bool, n)
	for t, id := range ids {
		_, hits[t] = cache[id]
		cache[id] = next[t]
		if len(cache) > capacity {
			// Evict the line reused furthest in the future; that may be
			// the incoming one (bypass).
			victim, far := -1, -1
			for k, u := range cache {
				if u > far || (u == far && k < victim) {
					victim, far = k, u
				}
			}
			delete(cache, victim)
		}
	}
	return hits
}

// TestSandboxMatchesBelady checks every OPT decision of one sampled set
// against an offline Belady MIN with bypass, at several capacities, on
// seeded random streams over working sets of 2 to 32 lines. There is no
// tolerance: OPTgen over its 8x window is exact.
func TestSandboxMatchesBelady(t *testing.T) {
	caps := []int{1, 2, 3, 4, 6, 8, 12, 16}
	checks := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lines := 2 + rng.Intn(31)
		stream := make([]mem.Line, 3000)
		for i := range stream {
			stream[i] = mem.Line(rng.Intn(lines))
		}
		s := NewSandbox(1, 64, caps...)
		got := make([]Touch, len(stream))
		for i, l := range stream {
			got[i] = s.Access(0, l, 0)
		}
		for c, capacity := range caps {
			want := beladyHits(stream, capacity, 8*capacity)
			for i := range stream {
				if got[i].Hit(c) != want[i] {
					t.Fatalf("seed %d (%d lines) capacity %d access %d: OPTgen hit %v, Belady %v",
						seed, lines, capacity, i, got[i].Hit(c), want[i])
				}
				checks++
			}
		}
	}
	t.Logf("%d access x capacity decisions match Belady", checks)
}
