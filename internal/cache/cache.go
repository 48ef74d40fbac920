// Package cache implements the set-associative caches of the simulated
// hierarchy. A Cache tracks residency, dirtiness, prefetch provenance,
// and fill-completion times (for prefetch timeliness), and supports
// dynamic way partitioning so that Triage can carve LLC ways out for its
// metadata store (paper §3).
//
// Timing model: the hierarchy updates cache *state* eagerly at access
// time and carries latency in "ready ticks" on each line. A demand
// access that finds an in-flight fill (ReadyTick in the future) pays the
// residual latency — this models MSHR merging and late prefetches
// without an event queue.
//
// Layout: line state is held in parallel flat arrays indexed set*ways+
// way (struct-of-arrays). The residency scan — the single hottest loop
// in the simulator — touches only the tag array, 8 bytes per way, with
// invalid ways holding a sentinel tag so no separate valid check is
// needed.
package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/replacement"
)

// Line holds the per-line state of one cache way (the assembled view;
// storage is struct-of-arrays).
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// Prefetched is set when the line was installed by a prefetcher and
	// has not yet been demanded.
	Prefetched bool
	// PrefetchPC is the trigger PC recorded at prefetch-fill time so the
	// prefetcher can be credited/debited on use or eviction.
	PrefetchPC uint64
	// ReadyTick is when the fill completes (simulator ticks); a demand
	// access before then pays the residual latency.
	ReadyTick uint64
	// Core is the id of the core that installed the line (multi-core
	// stats and per-core partitioning).
	Core int
}

// invalidTag marks an empty way in the tag array. Real tags are line
// addresses shifted right by the set bits, far below 2^64-1.
const invalidTag = ^uint64(0)

// wayState is the non-tag state of one way (24 bytes).
type wayState struct {
	ready uint64 // fill-completion tick
	pfPC  uint64 // trigger PC of a prefetch fill
	core  int32  // installing core
	meta  uint8  // flagDirty | flagPrefetched
}

// Per-way flag bits in the meta array.
const (
	flagDirty      = 1 << 0
	flagPrefetched = 1 << 1
)

// Stats aggregates cache-level event counts.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	PrefetchFills  uint64
	PrefetchUsed   uint64 // demand hit on a prefetched line
	PrefetchUnused uint64 // prefetched line evicted without use
	LatePrefetches uint64 // demand hit before the prefetch completed
	Writebacks     uint64
	Evictions      uint64
}

// Eviction describes a line displaced by a fill or invalidation. The
// flags share one field so the struct stays within the compiler's
// limits for values kept in registers (at most 4 fields, 4 words):
// Fill, evict and Invalidate return it without a stack round trip.
type Eviction struct {
	Line  mem.Line
	Core  int
	flags uint8 // evValid | evDirty | evPrefetch
}

const (
	evValid    = 1 << 0
	evDirty    = 1 << 1
	evPrefetch = 1 << 2
)

// Valid reports whether a line was displaced.
func (e Eviction) Valid() bool { return e.flags&evValid != 0 }

// Dirty reports whether the displaced line needs a writeback.
func (e Eviction) Dirty() bool { return e.flags&evDirty != 0 }

// Prefetch reports whether the displaced line was an unused prefetch.
func (e Eviction) Prefetch() bool { return e.flags&evPrefetch != 0 }

// Cache is one level of the hierarchy.
type Cache struct {
	name     string
	sets     int
	ways     int
	dataWays int // ways usable for data; rest reserved (metadata)

	setMask  uint64 // sets-1 (sets is a power of two)
	tagShift uint   // log2(sets)

	// Per-way state, indexed set*ways + way. Tags live alone so the
	// residency scan touches 8 bytes per way; everything else is
	// interleaved in one record so the hit/evict paths touch a single
	// additional host cache line instead of four parallel arrays.
	tags []uint64 // invalidTag when the way is empty
	st   []wayState

	policy replacement.Policy
	stats  Stats
	// live counts the valid lines per set. Steady-state sets are full,
	// so Fill skips the scan for an empty way and asks the policy.
	live []uint16
}

// New returns a cache with the given geometry and replacement policy.
func New(name string, sets, ways int, policy replacement.Policy) *Cache {
	if !mem.IsPow2(sets) {
		panic(fmt.Sprintf("cache %s: sets=%d not a power of two", name, sets))
	}
	if ways < 1 {
		panic(fmt.Sprintf("cache %s: ways=%d", name, ways))
	}
	n := sets * ways
	c := &Cache{
		name: name, sets: sets, ways: ways, dataWays: ways,
		setMask: uint64(sets - 1), tagShift: mem.Log2(sets),
		tags:   make([]uint64, n),
		st:     make([]wayState, n),
		live:   make([]uint16, sets),
		policy: policy,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// DataWays returns the ways currently available to data.
func (c *Cache) DataWays() int { return c.dataWays }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) set(l mem.Line) int    { return int(uint64(l) & c.setMask) }
func (c *Cache) tag(l mem.Line) uint64 { return uint64(l) >> c.tagShift }

// lineAt assembles the Line view of (s, w) (tests, invariants).
func (c *Cache) lineAt(s, w int) Line {
	i := s*c.ways + w
	if c.tags[i] == invalidTag {
		return Line{}
	}
	st := &c.st[i]
	return Line{
		Tag:        c.tags[i],
		Valid:      true,
		Dirty:      st.meta&flagDirty != 0,
		Prefetched: st.meta&flagPrefetched != 0,
		PrefetchPC: st.pfPC,
		ReadyTick:  st.ready,
		Core:       int(st.core),
	}
}

// putLine overwrites (s, w) with ln (tests only), recounting the
// set's live lines.
func (c *Cache) putLine(s, w int, ln Line) {
	i := s*c.ways + w
	defer c.recount(s)
	if !ln.Valid {
		c.tags[i] = invalidTag
		c.st[i].meta = 0
		return
	}
	c.tags[i] = ln.Tag
	var m uint8
	if ln.Dirty {
		m |= flagDirty
	}
	if ln.Prefetched {
		m |= flagPrefetched
	}
	c.st[i] = wayState{meta: m, pfPC: ln.PrefetchPC, ready: ln.ReadyTick, core: int32(ln.Core)}
}

// recount recomputes live[s] from the tag array (test mutations only).
func (c *Cache) recount(s int) {
	base := s * c.ways
	n := uint16(0)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] != invalidTag {
			n++
		}
	}
	c.live[s] = n
}

// Probe reports whether l is resident without touching any state.
func (c *Cache) Probe(l mem.Line) bool {
	t := c.tag(l)
	base := c.set(l) * c.ways
	tags := c.tags[base : base+c.dataWays]
	for w := range tags {
		if tags[w] == t {
			return true
		}
	}
	return false
}

// LookupResult describes the outcome of a demand or prefetch lookup.
// Like Eviction, its flags share one field so Access returns it in
// registers.
type LookupResult struct {
	// ReadyTick is the fill-completion tick of the hit line (0 if the
	// line has long been resident).
	ReadyTick uint64
	// PrefetchPC is the trigger PC recorded at prefetch time, valid
	// when WasPrefetch.
	PrefetchPC uint64
	flags      uint8 // lkHit | lkWasPrefetch | lkLate
}

const (
	lkHit         = 1 << 0
	lkWasPrefetch = 1 << 1
	lkLate        = 1 << 2
)

// Hit reports whether the line was resident.
func (r LookupResult) Hit() bool { return r.flags&lkHit != 0 }

// WasPrefetch reports whether this demand was the first use of a
// prefetched line.
func (r LookupResult) WasPrefetch() bool { return r.flags&lkWasPrefetch != 0 }

// Late reports whether the hit line's fill had not completed at `now`.
func (r LookupResult) Late() bool { return r.flags&lkLate != 0 }

// Access performs a demand access for line l at tick now. On a hit the
// line is promoted (policy Hit) and prefetch provenance is consumed.
func (c *Cache) Access(l mem.Line, a replacement.Access, now uint64) LookupResult {
	c.stats.Accesses++
	s := c.set(l)
	t := c.tag(l)
	base := s * c.ways
	tags := c.tags[base : base+c.dataWays]
	for w := range tags {
		if tags[w] != t {
			continue
		}
		st := &c.st[base+w]
		c.stats.Hits++
		res := LookupResult{ReadyTick: st.ready, flags: lkHit}
		if st.meta&flagPrefetched != 0 {
			res.flags |= lkWasPrefetch
			res.PrefetchPC = st.pfPC
			st.meta &^= flagPrefetched
			c.stats.PrefetchUsed++
			if st.ready > now {
				res.flags |= lkLate
				c.stats.LatePrefetches++
			}
		}
		if a.Prefetch && st.ready > now {
			res.flags |= lkLate
		}
		c.policy.Hit(s, w, a)
		return res
	}
	c.stats.Misses++
	return LookupResult{}
}

// Fill installs line l, selecting a victim among the data ways. The
// displaced line (if any) is returned so the caller can issue a
// writeback. readyTick is when the fill data arrives.
func (c *Cache) Fill(l mem.Line, a replacement.Access, dirty bool, readyTick uint64) Eviction {
	s := c.set(l)
	t := c.tag(l)
	base := s * c.ways
	// Refill of an already-resident line (e.g. a prefetch racing a
	// demand fill): just update state.
	tags := c.tags[base : base+c.dataWays]
	for w := range tags {
		if tags[w] != t {
			continue
		}
		st := &c.st[base+w]
		if dirty {
			st.meta |= flagDirty
		}
		if st.ready > readyTick {
			st.ready = readyTick
		}
		return Eviction{}
	}
	// Take the lowest empty way; only a full set asks the policy.
	w := 0
	if int(c.live[s]) < c.dataWays {
		for tags[w] != invalidTag {
			w++
		}
	} else if w = c.policy.Victim(s, c.dataWays); w < 0 || w >= c.dataWays {
		panic(fmt.Sprintf("cache %s: policy %s returned way %d of %d", c.name, c.policy.Name(), w, c.dataWays))
	}
	ev := c.evict(s, w)
	c.live[s]++
	i := base + w
	c.tags[i] = t
	var m uint8
	if dirty {
		m = flagDirty
	}
	if a.Prefetch {
		m |= flagPrefetched
		c.stats.PrefetchFills++
	}
	c.st[i] = wayState{meta: m, pfPC: a.PC, ready: readyTick, core: int32(a.Core)}
	c.policy.Fill(s, w, a)
	return ev
}

// evict clears (s, w) and returns what was there.
func (c *Cache) evict(s, w int) Eviction {
	i := s*c.ways + w
	if c.tags[i] == invalidTag {
		return Eviction{}
	}
	st := &c.st[i]
	ev := Eviction{
		Line:  mem.Line(c.tags[i]<<c.tagShift | uint64(s)),
		Core:  int(st.core),
		flags: evValid,
	}
	c.stats.Evictions++
	c.live[s]--
	if st.meta&flagDirty != 0 {
		ev.flags |= evDirty
		c.stats.Writebacks++
	}
	if st.meta&flagPrefetched != 0 {
		ev.flags |= evPrefetch
		c.stats.PrefetchUnused++
	}
	c.tags[i] = invalidTag
	st.meta = 0
	return ev
}

// MarkDirty sets the dirty bit of a resident line (store hit).
func (c *Cache) MarkDirty(l mem.Line) {
	t := c.tag(l)
	base := c.set(l) * c.ways
	tags := c.tags[base : base+c.dataWays]
	for w := range tags {
		if tags[w] == t {
			c.st[base+w].meta |= flagDirty
			return
		}
	}
}

// Invalidate removes line l if resident, returning its eviction record.
func (c *Cache) Invalidate(l mem.Line) Eviction {
	s := c.set(l)
	t := c.tag(l)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == t {
			return c.evict(s, w)
		}
	}
	return Eviction{}
}

// SetDataWays changes the number of ways available to data, evicting
// lines resident in removed ways. The returned slice contains the
// displaced lines (the hierarchy turns dirty ones into writebacks). Per
// the paper, shrinking the data partition flushes dirty lines and marks
// the ways invalid immediately.
func (c *Cache) SetDataWays(n int) []Eviction {
	if n < 1 || n > c.ways {
		panic(fmt.Sprintf("cache %s: SetDataWays(%d) with %d total ways", c.name, n, c.ways))
	}
	var evs []Eviction
	if n < c.dataWays {
		for s := 0; s < c.sets; s++ {
			for w := n; w < c.dataWays; w++ {
				if ev := c.evict(s, w); ev.Valid() {
					evs = append(evs, ev)
				}
			}
		}
	}
	c.dataWays = n
	return evs
}

// Occupancy returns the number of valid data lines (tests, debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		for w := 0; w < c.dataWays; w++ {
			if c.tags[base+w] != invalidTag {
				n++
			}
		}
	}
	return n
}
