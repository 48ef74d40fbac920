package sim

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/stride"
	"repro/internal/replacement"
	"repro/internal/telemetry"
)

// mshrRing models a bank of K miss-status-holding registers as a
// K-server queue: a request arriving at t starts no earlier than the
// completion of the request K slots ago. Requests are inserted in
// program order per core, so FIFO reuse is a faithful approximation.
type mshrRing struct {
	slots []uint64
	head  int
}

func newMSHRRing(k int) mshrRing { return mshrRing{slots: make([]uint64, k)} }

// admit returns the earliest start time for a request arriving at t,
// plus the reserved slot index the caller passes to commit with the
// request's completion. Returning an index instead of a commit closure
// keeps the demand path allocation-free.
func (m *mshrRing) admit(t uint64) (start uint64, slot int) {
	h := m.head
	if f := m.slots[h]; f > t {
		t = f
	}
	m.head = h + 1
	if m.head == len(m.slots) {
		m.head = 0
	}
	return t, h
}

// commit records the completion tick of the request holding slot.
func (m *mshrRing) commit(slot int, done uint64) { m.slots[slot] = done }

// tryAdmit is the non-blocking variant used for prefetches: when every
// slot is busy at t the request is rejected (ChampSim drops prefetches
// on a full prefetch queue rather than delaying them — a delayed
// prefetch would be worse than the demand miss it replaces).
func (m *mshrRing) tryAdmit(t uint64) (slot int, ok bool) {
	h := m.head
	if m.slots[h] > t {
		return -1, false
	}
	m.head = h + 1
	if m.head == len(m.slots) {
		m.head = 0
	}
	return h, true
}

// hierarchy owns the caches, DRAM and prefetchers of one machine.
type hierarchy struct {
	cfg config.Machine

	l1  []*cache.Cache // per core
	l2  []*cache.Cache // per core
	llc *cache.Cache   // shared
	ram *dram.DRAM

	l1pf []*stride.Prefetcher  // optional per-core L1 stride prefetcher
	l2pf []prefetch.Prefetcher // per-core L2 prefetcher (may be nil)

	// Per-core optional prefetcher interfaces, asserted once in
	// newHierarchy so the hot path never repeats the type assertions.
	l2oo []prefetch.OutcomeObserver
	l2fo []prefetch.FillObserver

	// Per-core queueing: demand MSHRs at L1 and L2, and the prefetch
	// queue below the L2 (finite MLP; what makes prefetching matter).
	// Stored by value so the rings live in three contiguous arrays.
	l1mshr []mshrRing
	l2mshr []mshrRing
	pfq    []mshrRing

	// Latencies in ticks.
	l1Lat, l2Lat, llcLat uint64

	noCapacityLoss bool
	metaWays       int
	partitioners   [][]metadataPartitioner // per core

	// Fig 19: time-averaged per-core metadata ways.
	waySamples []float64
	waySampleN uint64
	lastWants  []int

	// tr, when non-nil, receives prefetch-lifecycle and
	// partition-resize events. Every emission site is nil-guarded so
	// the disabled path costs one predictable branch off the per-
	// instruction loop.
	tr *telemetry.EventTrace

	// Energy counters (prefetch.Env).
	triageMetaAccesses uint64
	metaLineRR         uint64 // rotates MISB metadata over banks

	pfIssued, pfRedundant, pfDropped uint64
}

// metadataPartitioner is implemented by prefetchers that claim LLC
// capacity for metadata (Triage).
type metadataPartitioner interface {
	DesiredMetadataBytes() int
}

// partsOf unwraps hybrid prefetchers to find partitioners.
type partsProvider interface {
	Parts() []prefetch.Prefetcher
}

// walkParts visits the leaf prefetchers of p, unwrapping hybrids. It is
// the one traversal shared by every construction-time interface probe
// (partitioners, invariant checkers, event-trace binders, estimators).
func walkParts(p prefetch.Prefetcher, fn func(prefetch.Prefetcher)) {
	if p == nil {
		return
	}
	if pp, ok := p.(partsProvider); ok {
		for _, part := range pp.Parts() {
			walkParts(part, fn)
		}
		return
	}
	fn(p)
}

func findPartitioners(p prefetch.Prefetcher) []metadataPartitioner {
	var out []metadataPartitioner
	walkParts(p, func(leaf prefetch.Prefetcher) {
		if mp, ok := leaf.(metadataPartitioner); ok {
			out = append(out, mp)
		}
	})
	return out
}

func newHierarchy(cfg config.Machine, l2pf []prefetch.Prefetcher, llcPolicy string, detailedDRAM, noCapacityLoss bool, tr *telemetry.EventTrace) *hierarchy {
	h := &hierarchy{
		cfg:            cfg,
		ram:            dram.New(cfg, detailedDRAM),
		l2pf:           l2pf,
		tr:             tr,
		l1Lat:          uint64(cfg.L1Latency) * dram.TicksPerCycle,
		l2Lat:          uint64(cfg.L2Latency) * dram.TicksPerCycle,
		llcLat:         uint64(cfg.LLCLatency+cfg.LLCExtraLatency) * dram.TicksPerCycle,
		noCapacityLoss: noCapacityLoss,
		waySamples:     make([]float64, cfg.Cores),
		lastWants:      make([]int, cfg.Cores),
	}
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New("l1", cfg.L1Sets(), cfg.L1Ways, replacement.NewLRU(cfg.L1Sets(), cfg.L1Ways)))
		h.l2 = append(h.l2, cache.New("l2", cfg.L2Sets(), cfg.L2Ways, replacement.NewLRU(cfg.L2Sets(), cfg.L2Ways)))
		h.l1mshr = append(h.l1mshr, newMSHRRing(cfg.L1MSHRs))
		h.l2mshr = append(h.l2mshr, newMSHRRing(cfg.L2MSHRs))
		h.pfq = append(h.pfq, newMSHRRing(cfg.PrefetchQueue))
		if cfg.L1StridePrefetcher {
			h.l1pf = append(h.l1pf, stride.New())
		} else {
			h.l1pf = append(h.l1pf, nil)
		}
	}
	llcSets := cfg.LLCSets()
	var pol replacement.Policy
	switch llcPolicy {
	case "hawkeye":
		pol = replacement.NewHawkeye(llcSets, cfg.LLCWays, 64, 13)
	default:
		pol = replacement.NewLRU(llcSets, cfg.LLCWays)
	}
	h.llc = cache.New("llc", llcSets, cfg.LLCWays, pol)
	for _, p := range l2pf {
		if eu, ok := p.(prefetch.EnvUser); ok {
			eu.Bind(h)
		}
	}
	h.resolveHooks()
	h.applyPartition(0)
	return h
}

// resolveHooks asserts the per-core prefetchers' optional interfaces.
func (h *hierarchy) resolveHooks() {
	cores := len(h.l2pf)
	h.l2oo = make([]prefetch.OutcomeObserver, cores)
	h.l2fo = make([]prefetch.FillObserver, cores)
	h.partitioners = make([][]metadataPartitioner, cores)
	for c, p := range h.l2pf {
		if p == nil {
			continue
		}
		if oo, ok := p.(prefetch.OutcomeObserver); ok {
			h.l2oo[c] = oo
		}
		if fo, ok := p.(prefetch.FillObserver); ok {
			h.l2fo[c] = fo
		}
		h.partitioners[c] = findPartitioners(p)
	}
}

// --- prefetch.Env ---

// MetadataRead implements prefetch.Env: one off-chip metadata block
// read, contending for DRAM bandwidth like any other transfer.
func (h *hierarchy) MetadataRead(now uint64) uint64 {
	h.metaLineRR++
	return h.ram.Access(now, mem.Line(h.metaLineRR), dram.MetadataRead)
}

// MetadataWrite implements prefetch.Env.
func (h *hierarchy) MetadataWrite(now uint64) {
	h.metaLineRR++
	h.ram.Access(now, mem.Line(h.metaLineRR), dram.MetadataWrite)
}

// LLCMetadataAccess implements prefetch.Env.
func (h *hierarchy) LLCMetadataAccess(n int) {
	h.triageMetaAccesses += uint64(n)
}

// --- partitioning ---

// applyPartition converts the per-core metadata desires into LLC way
// allocation. Each core's wish is clamped so the total never exceeds
// half the LLC (Fig. 19 caps metadata at 50%). now stamps the resize
// event when the allocation changes.
func (h *hierarchy) applyPartition(now uint64) {
	total := 0
	for c := range h.partitioners {
		want := 0
		for _, p := range h.partitioners[c] {
			want += p.DesiredMetadataBytes()
		}
		h.lastWants[c] = want
		total += want
	}
	if h.noCapacityLoss {
		return
	}
	bytesPerWay := h.llc.Sets() * mem.LineSize
	ways := (total + bytesPerWay/2) / bytesPerWay
	if max := h.cfg.LLCWays / 2; ways > max {
		ways = max
	}
	if ways == h.metaWays {
		return
	}
	if h.tr != nil {
		h.tr.Emit(telemetry.Event{
			Tick: now, Kind: telemetry.EvPartitionResize, Core: -1,
			A: int64(h.metaWays), B: int64(ways),
		})
	}
	h.metaWays = ways
	evs := h.llc.SetDataWays(h.cfg.LLCWays - ways)
	// Flushed dirty lines are written back (the paper flushes the
	// reallocated portion immediately).
	for _, ev := range evs {
		if ev.Dirty() {
			h.ram.Access(0, ev.Line, dram.Writeback)
		}
	}
}

// sampleWays records the per-core metadata allocation for Fig. 19. The
// recorded unit is LLC ways of the shared cache attributable to each
// core's wish.
func (h *hierarchy) sampleWays() {
	h.waySampleN++
	bytesPerWay := float64(h.llc.Sets() * mem.LineSize)
	for c := range h.lastWants {
		h.waySamples[c] += float64(h.lastWants[c]) / bytesPerWay
	}
}

// metaWaysOf returns core c's current metadata wish in LLC ways (the
// instantaneous Fig. 19 quantity, sampled by the telemetry layer).
func (h *hierarchy) metaWaysOf(c int) float64 {
	return float64(h.lastWants[c]) / float64(h.llc.Sets()*mem.LineSize)
}

// --- the access paths ---

// load performs a demand load for core c and returns the data-ready tick.
func (h *hierarchy) load(c int, pc uint64, line mem.Line, now uint64) uint64 {
	acc := replacement.Access{Line: line, PC: pc, Core: c}

	if r := h.l1[c].Access(line, acc, now); r.Hit() {
		ready := now + h.l1Lat
		if r.ReadyTick > ready {
			ready = r.ReadyTick
		}
		h.trainL1(c, pc, line, now)
		return ready
	}
	h.trainL1(c, pc, line, now)

	// L1 miss: allocate an L1 MSHR; it is held until the fill arrives.
	t, slotL1 := h.l1mshr[c].admit(now)
	var ready uint64

	if r := h.l2[c].Access(line, acc, t); r.Hit() {
		ready = t + h.l2Lat
		if r.ReadyTick > ready {
			ready = r.ReadyTick
		}
		h.fill(h.l1[c], c, line, acc, false, ready)
		h.l1mshr[c].commit(slotL1, ready)
		if r.WasPrefetch() {
			if h.tr != nil {
				h.tr.Emit(telemetry.Event{Tick: t, Kind: telemetry.EvUsed, Core: int32(c), Level: 2, Line: uint64(line), PC: pc})
			}
			// Demand hit on a prefetched L2 line: a training event.
			h.trainL2(c, prefetch.Event{PC: pc, Line: line, Core: c, PrefetchHit: true, Tick: t})
		}
		return ready
	}

	// L2 demand miss: training event regardless of LLC outcome.
	ev := prefetch.Event{PC: pc, Line: line, Core: c, Miss: true, Tick: t}
	t2, slotL2 := h.l2mshr[c].admit(t)
	if r := h.llc.Access(line, acc, t2); r.Hit() {
		ready = t2 + h.llcLat
		if r.ReadyTick > ready {
			ready = r.ReadyTick
		}
		if r.WasPrefetch() && h.tr != nil {
			h.tr.Emit(telemetry.Event{Tick: t2, Kind: telemetry.EvUsed, Core: int32(c), Level: 3, Line: uint64(line), PC: pc})
		}
	} else {
		ready = h.ram.Access(t2, line, dram.DemandRead)
		h.fill(h.llc, c, line, acc, false, ready)
	}
	h.l2mshr[c].commit(slotL2, ready)
	h.fill(h.l2[c], c, line, acc, false, ready)
	h.observeL2Fill(c, line, false, ready)
	h.fill(h.l1[c], c, line, acc, false, ready)
	h.l1mshr[c].commit(slotL1, ready)
	h.trainL2(c, ev)
	return ready
}

// store performs a demand store; the core does not wait (posted), but
// the line is write-allocated and dirtied.
func (h *hierarchy) store(c int, pc uint64, line mem.Line, now uint64) {
	acc := replacement.Access{Line: line, PC: pc, Core: c}
	if r := h.l1[c].Access(line, acc, now); r.Hit() {
		h.l1[c].MarkDirty(line)
		h.trainL1(c, pc, line, now)
		return
	}
	h.trainL1(c, pc, line, now)
	t, slotL1 := h.l1mshr[c].admit(now)
	if r := h.l2[c].Access(line, acc, t); r.Hit() {
		ready := t + h.l2Lat
		if r.ReadyTick > ready {
			ready = r.ReadyTick
		}
		h.fill(h.l1[c], c, line, acc, true, ready)
		h.l1mshr[c].commit(slotL1, ready)
		if r.WasPrefetch() {
			if h.tr != nil {
				h.tr.Emit(telemetry.Event{Tick: t, Kind: telemetry.EvUsed, Core: int32(c), Level: 2, Line: uint64(line), PC: pc})
			}
			h.trainL2(c, prefetch.Event{PC: pc, Line: line, Core: c, PrefetchHit: true, Store: true, Tick: t})
		}
		return
	}
	ev := prefetch.Event{PC: pc, Line: line, Core: c, Miss: true, Store: true, Tick: t}
	t2, slotL2 := h.l2mshr[c].admit(t)
	var ready uint64
	if r := h.llc.Access(line, acc, t2); r.Hit() {
		ready = t2 + h.llcLat
	} else {
		ready = h.ram.Access(t2, line, dram.DemandRead) // write-allocate fetch
		h.fill(h.llc, c, line, acc, false, ready)
	}
	h.l2mshr[c].commit(slotL2, ready)
	h.fill(h.l2[c], c, line, acc, false, ready)
	h.observeL2Fill(c, line, false, ready)
	h.fill(h.l1[c], c, line, acc, true, ready)
	h.l1mshr[c].commit(slotL1, ready)
	h.trainL2(c, ev)
}

// fill installs a line and routes the displaced victim's writeback.
func (h *hierarchy) fill(dst *cache.Cache, c int, line mem.Line, acc replacement.Access, dirty bool, ready uint64) {
	ev := dst.Fill(line, acc, dirty, ready)
	if !ev.Valid() {
		return
	}
	if ev.Prefetch() && h.tr != nil {
		switch dst {
		case h.l2[c]:
			h.tr.Emit(telemetry.Event{Tick: ready, Kind: telemetry.EvEvictedUnused, Core: int32(ev.Core), Level: 2, Line: uint64(ev.Line)})
		case h.llc:
			h.tr.Emit(telemetry.Event{Tick: ready, Kind: telemetry.EvEvictedUnused, Core: int32(ev.Core), Level: 3, Line: uint64(ev.Line)})
		}
	}
	if !ev.Dirty() {
		return
	}
	switch dst {
	case h.l1[c]:
		// L1 victim writes back into L2 (mark dirty if present; install
		// otherwise — simplified non-inclusive writeback).
		h.l2[c].MarkDirty(ev.Line)
	case h.l2[c]:
		h.llc.MarkDirty(ev.Line)
	case h.llc:
		h.ram.Access(ready, ev.Line, dram.Writeback)
	}
}

// trainL1 runs the baseline L1 stride prefetcher; its prefetches fill
// the L1 and L2 without training the L2 prefetcher.
func (h *hierarchy) trainL1(c int, pc uint64, line mem.Line, now uint64) {
	p := h.l1pf[c]
	if p == nil {
		return
	}
	for _, req := range p.Train(prefetch.Event{PC: pc, Line: line, Miss: true}) {
		if h.l1[c].Probe(req.Line) {
			continue
		}
		acc := replacement.Access{Line: req.Line, PC: req.PC, Core: c, Prefetch: true}
		// Resolve from L2/LLC/DRAM without touching the L2 training
		// path; a full prefetch queue drops the request.
		if h.l2[c].Probe(req.Line) {
			h.fill(h.l1[c], c, req.Line, acc, false, now+h.l2Lat)
			continue
		}
		slot, ok := h.pfq[c].tryAdmit(now)
		if !ok {
			continue
		}
		var ready uint64
		if r := h.llc.Access(req.Line, acc, now); r.Hit() {
			ready = now + h.llcLat
			h.fill(h.l2[c], c, req.Line, acc, false, ready)
		} else {
			ready = h.ram.Access(now, req.Line, dram.PrefetchRead)
			h.fill(h.llc, c, req.Line, acc, false, ready)
			h.fill(h.l2[c], c, req.Line, acc, false, ready)
		}
		h.pfq[c].commit(slot, ready)
		h.fill(h.l1[c], c, req.Line, acc, false, ready)
	}
}

// trainL2 feeds one training event to the core's L2 prefetcher and
// issues the resulting requests.
func (h *hierarchy) trainL2(c int, ev prefetch.Event) {
	p := h.l2pf[c]
	if p == nil {
		return
	}
	reqs := p.Train(ev)
	oo := h.l2oo[c]
	maxDelay := uint64(h.cfg.DRAMLatencyCycles()) * dram.TicksPerCycle
	for _, req := range reqs {
		if h.tr != nil {
			h.tr.Emit(telemetry.Event{Tick: ev.Tick, Kind: telemetry.EvTrained, Core: int32(c), Level: 2, Line: uint64(req.Line), PC: req.PC})
		}
		// A prefetch delayed longer than a DRAM round trip (e.g. by
		// serialized off-chip metadata lookups) would complete later
		// than the demand miss it is meant to hide; hardware squashes
		// it rather than letting the demand merge into it.
		if req.IssueDelay > maxDelay {
			h.pfDropped++
			if h.tr != nil {
				h.tr.Emit(telemetry.Event{Tick: ev.Tick, Kind: telemetry.EvDropped, Core: int32(c), Level: 2, Line: uint64(req.Line), PC: req.PC, A: dropDelay})
			}
			if oo != nil {
				oo.PrefetchOutcome(req, false)
			}
			continue
		}
		issueAt := ev.Tick + req.IssueDelay
		// Redundant if already in L2: dropped before consuming anything.
		if h.l2[c].Probe(req.Line) {
			h.pfRedundant++
			if h.tr != nil {
				h.tr.Emit(telemetry.Event{Tick: issueAt, Kind: telemetry.EvRedundant, Core: int32(c), Level: 2, Line: uint64(req.Line), PC: req.PC})
			}
			if oo != nil {
				oo.PrefetchOutcome(req, false)
			}
			continue
		}
		acc := replacement.Access{Line: req.Line, PC: req.PC, Core: c, Prefetch: true}
		slot, ok := h.pfq[c].tryAdmit(issueAt)
		if !ok {
			// Prefetch queue full: drop (never issued, so Triage's
			// delayed training treats it like a redundant prefetch).
			h.pfDropped++
			if h.tr != nil {
				h.tr.Emit(telemetry.Event{Tick: issueAt, Kind: telemetry.EvDropped, Core: int32(c), Level: 2, Line: uint64(req.Line), PC: req.PC, A: dropQueueFull})
			}
			if oo != nil {
				oo.PrefetchOutcome(req, false)
			}
			continue
		}
		h.pfIssued++
		if h.tr != nil {
			h.tr.Emit(telemetry.Event{Tick: issueAt, Kind: telemetry.EvIssued, Core: int32(c), Level: 2, Line: uint64(req.Line), PC: req.PC})
		}
		var ready uint64
		missedCache := false
		if r := h.llc.Access(req.Line, acc, issueAt); r.Hit() {
			ready = issueAt + h.llcLat
			if r.ReadyTick > ready {
				ready = r.ReadyTick
			}
		} else {
			missedCache = true
			ready = h.ram.Access(issueAt, req.Line, dram.PrefetchRead)
			h.fill(h.llc, c, req.Line, acc, false, ready)
		}
		h.pfq[c].commit(slot, ready)
		h.fill(h.l2[c], c, req.Line, acc, false, ready)
		if h.tr != nil {
			h.tr.Emit(telemetry.Event{Tick: ready, Kind: telemetry.EvFilled, Core: int32(c), Level: 2, Line: uint64(req.Line), PC: req.PC})
		}
		h.observeL2Fill(c, req.Line, true, ready)
		if oo != nil {
			oo.PrefetchOutcome(req, missedCache)
		}
	}
	// Partition re-evaluation is cheap; poll after each training event.
	if len(h.partitioners[c]) > 0 {
		h.applyPartition(ev.Tick)
	}
	h.sampleWays()
}

// Drop reasons carried in the A operand of EvDropped events.
const (
	dropDelay     = 1 // issue delay exceeded a DRAM round trip
	dropQueueFull = 2 // prefetch queue had no free slot
)

// observeL2Fill notifies FillObserver prefetchers (BO's RR table).
func (h *hierarchy) observeL2Fill(c int, line mem.Line, prefetched bool, tick uint64) {
	if fo := h.l2fo[c]; fo != nil {
		fo.ObserveFill(line, prefetched, tick)
	}
}

// resetStats clears all measurement counters (end of warmup).
func (h *hierarchy) resetStats() {
	for c := range h.l1 {
		h.l1[c].ResetStats()
		h.l2[c].ResetStats()
	}
	h.llc.ResetStats()
	h.ram.ResetStats()
	h.triageMetaAccesses = 0
	h.pfIssued, h.pfRedundant, h.pfDropped = 0, 0, 0
	h.waySampleN = 0
	for i := range h.waySamples {
		h.waySamples[i] = 0
	}
}
