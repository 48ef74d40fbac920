// Package sms implements Spatial Memory Streaming (Somogyi et al.,
// ISCA'06): it records the spatial footprint of accesses within a
// memory region during a "generation", associates the footprint with
// the (PC, trigger-offset) that opened the generation, and on a later
// trigger replays the footprint as prefetches across a new region.
//
// SMS captures recurring spatial patterns in irregular code but — as
// the paper stresses — cannot follow pointers, which is why it trails
// Triage badly on the irregular SPEC subset (Fig. 5).
package sms

import (
	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// RegionLines is the spatial region size in cache lines (2KB regions).
const RegionLines = 32

type generation struct {
	pc        uint64
	trigger   int // offset of the first access
	footprint uint32
}

// Prefetcher implements SMS.
type Prefetcher struct {
	// Active generation table: region -> in-flight footprint. The
	// flat.LRU's recency order matches the previous explicit lastUse
	// clock exactly (every access promotes, every use is unique), so
	// eviction picks the same victim the old min-scan did — in O(1)
	// instead of a full table walk per new generation.
	agt    *flat.LRU[generation]
	agtCap int

	// Pattern history table: (pc, trigger offset) -> footprint. A new
	// pattern in a full table evicts the least recently used one.
	pht    *flat.LRU[uint32]
	phtCap int

	degree int
}

// Option configures the prefetcher.
type Option func(*Prefetcher)

// WithTableSizes bounds the AGT and PHT.
func WithTableSizes(agt, pht int) Option {
	return func(p *Prefetcher) { p.agtCap, p.phtCap = agt, pht }
}

// New returns an SMS prefetcher (defaults: 64-region AGT, 16K-entry
// PHT, footprint replay capped at 8 lines).
func New(opts ...Option) *Prefetcher {
	p := &Prefetcher{
		agtCap: 64,
		phtCap: 16384,
		degree: 8,
	}
	for _, o := range opts {
		o(p)
	}
	p.agt = flat.NewLRU[generation](p.agtCap)
	p.pht = flat.NewLRU[uint32](p.phtCap)
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "sms" }

// SetDegree implements prefetch.DegreeSetter: it caps the number of
// footprint lines replayed per trigger.
func (p *Prefetcher) SetDegree(d int) { p.degree = d }

func phtKey(pc uint64, trigger int) uint64 {
	return pc<<5 | uint64(trigger)
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) []prefetch.Request {
	if !ev.Miss && !ev.PrefetchHit {
		return nil
	}
	region := mem.RegionOf(ev.Line, RegionLines)
	off := mem.RegionOffset(ev.Line, RegionLines)
	if slot, ok := p.agt.Find(region); ok {
		p.agt.At(slot).footprint |= 1 << uint(off)
		p.agt.TouchFront(slot)
		return nil
	}
	// New generation: first access to the region is the trigger.
	p.openGeneration(region, ev.PC, off)
	// Replay a learned footprint for this (PC, trigger offset), if any.
	slot, ok := p.pht.Find(phtKey(ev.PC, off))
	if !ok {
		return nil
	}
	p.pht.TouchFront(slot)
	fp := *p.pht.At(slot)
	base := mem.Line(region * RegionLines)
	reqs := make([]prefetch.Request, 0, p.degree)
	// Replay nearest offsets first so a small degree keeps the most
	// correlated lines.
	for dist := 1; dist < RegionLines && len(reqs) < p.degree; dist++ {
		for _, o := range []int{off + dist, off - dist} {
			if o < 0 || o >= RegionLines || len(reqs) >= p.degree {
				continue
			}
			if fp&(1<<uint(o)) != 0 {
				reqs = append(reqs, prefetch.Request{Line: base + mem.Line(o), PC: ev.PC})
			}
		}
	}
	return reqs
}

// openGeneration starts tracking a region, retiring the LRU generation
// into the PHT when the AGT is full.
func (p *Prefetcher) openGeneration(region uint64, pc uint64, off int) {
	_, ev, evicted := p.agt.Insert(region, generation{
		pc:        pc,
		trigger:   off,
		footprint: 1 << uint(off),
	})
	if evicted {
		p.retire(ev)
	}
}

// retire moves a finished generation's footprint into the PHT.
func (p *Prefetcher) retire(g generation) {
	key := phtKey(g.pc, g.trigger)
	if _, ok := p.pht.Find(key); ok && g.footprint == 1<<uint(g.trigger) {
		// The generation ended before any spatial neighbor was touched
		// (e.g. it was displaced from the AGT immediately); keep the
		// learned pattern instead of degrading it to a lone trigger.
		return
	}
	p.pht.Insert(key, g.footprint)
}
