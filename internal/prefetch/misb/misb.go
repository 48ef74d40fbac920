// Package misb implements MISB (Wu et al., ISCA'19), the state-of-the-
// art off-chip temporal prefetcher the paper compares against. MISB
// maps PC-localized correlated addresses into a *structural address
// space*: physically arbitrary but temporally consecutive addresses get
// consecutive structural addresses, so that (1) prediction is a +1 walk
// in structural space, and (2) metadata acquires spatial locality that
// an on-chip metadata cache and a metadata prefetcher can exploit.
//
// Unlike the idealized STMS/Domino models, MISB's metadata traffic and
// latency are modeled faithfully per the paper (§4.1): every on-chip
// metadata-cache miss costs an off-chip metadata read, dirty metadata
// evictions cost writes, and the structural-space metadata prefetcher
// hides latency by fetching ahead along the stream.
package misb

import (
	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// blockEntries is how many 8-byte mappings one 64B metadata block
// holds; the metadata cache transfers whole blocks.
const blockEntries = 8

// streamGap spaces structural streams so chains can grow long without
// colliding with a neighboring stream's slots. Structural space is
// virtual (it indexes off-chip metadata), so generous spacing costs
// nothing.
const streamGap = 1 << 20

type blockKind uint8

const (
	psKind blockKind = iota // physical -> structural blocks
	spKind                  // structural -> physical blocks
)

// blockKey identifies one metadata block; kind occupies the low bit so
// the key doubles as a flat-table key.
type blockKey uint64

func makeBlockKey(kind blockKind, id uint64) blockKey {
	return blockKey(id<<1 | uint64(kind))
}

// Prefetcher is the MISB model. The hot-path maps — PS/SP, the
// training units, and the metadata block cache — are flat
// open-addressed tables (internal/flat), so Train allocates nothing in
// steady state.
type Prefetcher struct {
	env prefetch.Env

	// Off-chip metadata (backed by host memory = simulated DRAM).
	// Each correlation is tracked twice (PS and SP entries) — the 2x
	// metadata redundancy the paper attributes to MISB (§2.1). The SP
	// map packs the physical line and its 1-bit successor confidence
	// into one value: line<<1 | conf.
	ps *flat.Map
	sp *flat.Map

	lastAddr *flat.Map // training unit: PC -> last line

	nextStream uint64

	cache  *blockCache
	degree int

	reqs []prefetch.Request // predict scratch, reused every Train

	// Stats
	offchipReads  uint64
	offchipWrites uint64
	cacheHits     uint64
	cacheMisses   uint64

	dbgRebinds, dbgDisplace, dbgForgiven, dbgConsistent uint64
}

// Option configures MISB.
type Option func(*Prefetcher)

// WithCacheBytes sets the on-chip metadata cache size (default 48KB,
// the "MISB_48KB" configuration of Fig. 11).
func WithCacheBytes(b int) Option {
	return func(p *Prefetcher) { p.cache = newBlockCache(b / mem.LineSize) }
}

// New returns a MISB prefetcher.
func New(opts ...Option) *Prefetcher {
	// PS, SP and the training unit start empty and grow with the
	// correlations a run trains, so a machine (and its warm snapshot)
	// holds only the metadata its instructions produced.
	p := &Prefetcher{
		env:      prefetch.NopEnv{},
		ps:       flat.NewMap(0),
		sp:       flat.NewMap(0),
		lastAddr: flat.NewMap(0),
		cache:    newBlockCache(48 << 10 / mem.LineSize),
		degree:   1,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "misb" }

// SetDegree implements prefetch.DegreeSetter.
func (p *Prefetcher) SetDegree(d int) { p.degree = d }

// Bind implements prefetch.EnvUser.
func (p *Prefetcher) Bind(env prefetch.Env) { p.env = env }

// OffChipMetadataAccesses returns total off-chip metadata transfers
// (the energy model of Fig. 13 charges these at DRAM cost).
func (p *Prefetcher) OffChipMetadataAccesses() uint64 {
	return p.offchipReads + p.offchipWrites
}

// CacheHitRate returns the on-chip metadata cache hit rate.
func (p *Prefetcher) CacheHitRate() float64 {
	t := p.cacheHits + p.cacheMisses
	if t == 0 {
		return 0
	}
	return float64(p.cacheHits) / float64(t)
}

func psBlock(l mem.Line) blockKey { return makeBlockKey(psKind, uint64(l)/blockEntries) }
func spBlock(s uint64) blockKey   { return makeBlockKey(spKind, s/blockEntries) }

// touch runs one metadata-cache access for an operation that began at
// tick eventTick; on a miss it pays an off-chip read and installs the
// block. It returns the read latency in ticks (0 on a hit). DRAM
// bandwidth is always charged at eventTick — chained lookups pipeline
// on the channel even though their latencies add up serially.
func (p *Prefetcher) touch(key blockKey, eventTick uint64, write bool) uint64 {
	if p.cache.access(key, write) {
		p.cacheHits++
		return 0
	}
	p.cacheMisses++
	p.offchipReads++
	done := p.env.MetadataRead(eventTick)
	if ev, dirty := p.cache.install(key, write); ev {
		if dirty {
			p.offchipWrites++
			p.env.MetadataWrite(eventTick)
		}
	}
	return done - eventTick
}

// prefetchBlock installs a block without charging latency to the
// current operation (the metadata prefetcher runs off the critical
// path) but still pays traffic.
func (p *Prefetcher) prefetchBlock(key blockKey, now uint64) {
	if p.cache.present(key) {
		return
	}
	p.offchipReads++
	p.env.MetadataRead(now)
	if ev, dirty := p.cache.install(key, false); ev && dirty {
		p.offchipWrites++
		p.env.MetadataWrite(now)
	}
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) []prefetch.Request {
	if !ev.Miss && !ev.PrefetchHit {
		return nil
	}
	now := ev.Tick
	reqs := p.predict(ev, now)
	p.learn(ev, now)
	return reqs
}

// predict walks the structural space from ev.Line's structural address.
// The returned slice is scratch owned by the prefetcher; callers
// consume it before the next Train.
func (p *Prefetcher) predict(ev prefetch.Event, now uint64) []prefetch.Request {
	s, ok := p.ps.Get(uint64(ev.Line))
	if !ok {
		return nil
	}
	delay := p.touch(psBlock(ev.Line), now, false)
	p.reqs = p.reqs[:0]
	for i := 1; i <= p.degree; i++ {
		packed, ok := p.sp.Get(s + uint64(i))
		if !ok {
			break
		}
		delay += p.touch(spBlock(s+uint64(i)), now, false)
		p.reqs = append(p.reqs, prefetch.Request{Line: mem.Line(packed >> 1), PC: ev.PC, IssueDelay: delay})
	}
	// Metadata prefetching — MISB's central mechanism for hiding
	// off-chip metadata latency: fetch the next SP block along the
	// stream, and the PS blocks of the just-predicted addresses (they
	// become triggers momentarily). Off the critical path; traffic is
	// still charged.
	p.prefetchBlock(spBlock(s+uint64(p.degree)+blockEntries), now)
	for _, req := range p.reqs {
		p.prefetchBlock(psBlock(req.Line), now)
	}
	if len(p.reqs) == 0 {
		return nil
	}
	return p.reqs
}

// learn updates the structural mapping with the new correlation.
// Unlike a table, the structural space must be *maintained*: a pair
// whose successor changed updates the SP slot under a 1-bit confidence
// (first disagreement forgiven), and a line keeps its first structural
// position for life. Cross-stream links leave stale duplicate SP
// entries behind — exactly the metadata redundancy the paper says
// structural organizations pay relative to Triage's table (§2.1).
func (p *Prefetcher) learn(ev prefetch.Event, now uint64) {
	prevU, hadPrev := p.lastAddr.Get(ev.PC)
	prev := mem.Line(prevU)
	p.lastAddr.Set(ev.PC, uint64(ev.Line))
	if !hadPrev || prev == ev.Line {
		return
	}
	sPrev, ok := p.ps.Get(uint64(prev))
	if !ok {
		// Start a new structural stream at prev.
		sPrev = p.nextStream * streamGap
		p.nextStream++
		p.ps.Set(uint64(prev), sPrev)
		p.sp.Set(sPrev, uint64(prev)<<1)
		p.touch(psBlock(prev), now, true)
		p.touch(spBlock(sPrev), now, true)
	}
	desired := sPrev + 1
	if packed, ok := p.sp.Get(desired); ok {
		old, conf := mem.Line(packed>>1), packed&1 == 1
		if old == ev.Line {
			p.dbgConsistent++
			p.sp.Set(desired, packed|1)
			return // already correlated
		}
		if conf {
			// First disagreement is forgiven (1-bit confidence).
			p.dbgForgiven++
			p.sp.Set(desired, packed&^1)
			return
		}
		p.dbgDisplace++
	}
	p.dbgRebinds++
	p.sp.Set(desired, uint64(ev.Line)<<1|1)
	p.touch(spBlock(desired), now, true)
	if _, ok := p.ps.Get(uint64(ev.Line)); !ok {
		p.ps.Set(uint64(ev.Line), desired)
		p.touch(psBlock(ev.Line), now, true)
	}
}

// --- on-chip metadata cache: LRU over 64B blocks ---

// blockCache is a fixed-capacity LRU of metadata blocks; the value per
// block is its dirty bit.
type blockCache struct {
	lru *flat.LRU[bool]
}

func newBlockCache(blocks int) *blockCache {
	if blocks < 1 {
		blocks = 1
	}
	return &blockCache{lru: flat.NewLRU[bool](blocks)}
}

// access touches key; returns true on hit. write marks it dirty.
func (c *blockCache) access(key blockKey, write bool) bool {
	slot, ok := c.lru.Find(uint64(key))
	if !ok {
		return false
	}
	if write {
		*c.lru.At(slot) = true
	}
	c.lru.TouchFront(slot)
	return true
}

func (c *blockCache) present(key blockKey) bool {
	_, ok := c.lru.Find(uint64(key))
	return ok
}

// install inserts key, evicting the LRU block if full. It returns
// whether an eviction happened and whether the victim was dirty.
func (c *blockCache) install(key blockKey, write bool) (evicted, dirty bool) {
	if slot, ok := c.lru.Find(uint64(key)); ok {
		if write {
			*c.lru.At(slot) = true
		}
		c.lru.TouchFront(slot)
		return false, false
	}
	_, victimDirty, ev := c.lru.Insert(uint64(key), write)
	return ev, ev && victimDirty
}
