// Package core implements the paper's contribution: the Triage
// prefetcher — a PC-localized temporal data prefetcher whose metadata
// lives entirely on chip, in a dynamically provisioned way-partition of
// the LLC (Wu et al., MICRO'19).
//
// Triage has four pieces, each mapping to a section of the paper:
//
//   - a Training Unit holding the last address touched by each load PC;
//     consecutive addresses from the same PC form a correlated pair (§3.1)
//   - a table-based metadata store: 4-byte entries with compressed tags,
//     16 entries per 64B LLC line, indexed by the trigger's set_id (§3.2)
//   - a modified Hawkeye replacement policy for metadata entries that is
//     trained positively only by prefetches that miss in the cache (§3)
//   - an OPTgen-sandbox partitioner that re-evaluates the metadata
//     store size (0, 512KB, or 1MB per core) every 50K metadata
//     accesses (§3)
package core

import (
	"fmt"

	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/replacement"
	"repro/internal/telemetry"
)

// Mode selects how the metadata store is provisioned.
type Mode int

// Provisioning modes.
const (
	// Static uses a fixed metadata store size (Triage-Static).
	Static Mode = iota
	// Dynamic provisions 0/512KB/1MB per epoch (Triage-Dynamic).
	Dynamic
	// Unlimited models the idealized PC-localized temporal prefetcher
	// with unbounded metadata (the "Perfect" line of Fig. 9); it claims
	// no LLC capacity.
	Unlimited
	// DynamicUtility extends Dynamic with the paper's named future work
	// (§4.2): the partitioner also estimates the LLC data hit rate it
	// would destroy at each candidate size and provisions a store only
	// when the metadata gain exceeds the data loss. It repairs the
	// bzip2-style pathology where metadata reuse exists but the
	// prefetches it yields are redundant.
	DynamicUtility
	// DynamicLadder implements the paper's §3 sketch for supporting any
	// number of partition sizes: the two OPTgen copies are time-shared
	// across an ascending ladder of candidate sizes, walking one rung
	// per epoch (see timeshare.go).
	DynamicLadder
)

// Replacement selects the metadata replacement policy (Fig. 9 compares
// LRU against Hawkeye).
type Replacement int

// Metadata replacement policies.
const (
	Hawkeye Replacement = iota
	LRU
)

// The Dynamic modes choose between two metadata store sizes per core
// (paper: 512KB and 1MB), the metadata Hawkeye's PC predictor has 2^13
// (8K) counters, and the training unit keeps the last address of 256
// PCs.
const (
	smallBytes       = 512 << 10
	largeBytes       = 1 << 20
	predictorBits    = 13
	trainingUnitSize = 256
)

// ladderRungs are DynamicLadder's candidate store sizes, ascending.
var ladderRungs = []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}

// Config parameterizes a Triage instance.
type Config struct {
	// Mode selects Static, Dynamic or Unlimited provisioning.
	Mode Mode
	// StaticBytes is the metadata store size in Static mode
	// (the paper's best static size for a 2MB LLC is 1MB).
	StaticBytes int
	// Replacement picks Hawkeye (default) or LRU for metadata entries.
	Replacement Replacement
	// Degree is the prefetch degree (default 1). Each additional degree
	// chains another metadata lookup, paying LLCLatencyTicks again.
	Degree int
	// LLCLatencyTicks is the cost of one LLC-resident metadata lookup,
	// charged as issue delay on prefetch requests (~20 cycles, §3).
	LLCLatencyTicks uint64
	// EpochAccesses is the partition re-evaluation period in metadata
	// accesses (paper: 50,000).
	EpochAccesses int
}

func (c *Config) applyDefaults() {
	if c.StaticBytes == 0 {
		c.StaticBytes = 1 << 20
	}
	if c.Degree == 0 {
		c.Degree = 1
	}
	if c.EpochAccesses == 0 {
		c.EpochAccesses = 50000
	}
}

func (c *Config) validate() error {
	if c.StaticBytes%(metadataSets*bytesPerEntry) != 0 {
		return fmt.Errorf("triage: StaticBytes = %d is not a multiple of %d (sets x entry size)",
			c.StaticBytes, metadataSets*bytesPerEntry)
	}
	return nil
}

// pendingObs is a deferred Hawkeye predictor update awaiting the
// prefetch outcome (the paper delays training until the prefetch is
// known to miss in the cache; redundant prefetches drop it).
type pendingObs struct {
	hint trainHint
}

// Triage is the prefetcher. It implements prefetch.Prefetcher,
// prefetch.DegreeSetter, prefetch.EnvUser and prefetch.OutcomeObserver.
type Triage struct {
	cfg  Config
	env  prefetch.Env
	pred *replacement.Predictor

	// tu is the training unit: PC -> last line, bounded by
	// trainingUnitSize with FIFO eviction. Updates go through At (no
	// LRU promotion), so the flat table's recency order degenerates to
	// insertion order — exactly the original FIFO.
	tu *flat.LRU[uint64]

	store  *store
	sizer  *sizer
	ladder *timeShareSizer
	// trainer trains the predictor in Static and Ladder modes under
	// Hawkeye: OPTgen at the store's full size.
	trainer *replacement.Sandbox

	// Unlimited-mode table.
	unl     map[mem.Line]unlEntry
	pending map[mem.Line]pendingObs

	reqs []prefetch.Request // predict scratch, reused every Train

	// tr, when non-nil, receives Hawkeye predictor-decision events;
	// lastTick/lastCore stamp them with the current training event.
	tr       *telemetry.EventTrace
	lastTick uint64
	lastCore int32

	metadataAccesses uint64 // LLC accesses for metadata (energy, Fig 13)
	lookups          uint64
	lookupHits       uint64
	issued           uint64
	usefulFeedback   uint64
	redundant        uint64
}

type unlEntry struct {
	next mem.Line
	conf bool
	uses uint64
}

// New returns a Triage instance. It panics on invalid configuration
// (sizes must pack into the 2048-set, 4-byte-entry layout).
func New(cfg Config) *Triage {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	t := &Triage{
		cfg:     cfg,
		env:     prefetch.NopEnv{},
		pred:    replacement.NewPredictor(predictorBits),
		tu:      flat.NewLRU[uint64](trainingUnitSize),
		pending: make(map[mem.Line]pendingObs),
	}
	switch cfg.Mode {
	case Unlimited:
		t.unl = make(map[mem.Line]unlEntry)
	case Static:
		assoc := cfg.StaticBytes / bytesPerEntry / metadataSets
		t.store = newStore(assoc, cfg.Replacement == Hawkeye, t.pred)
	case Dynamic, DynamicUtility:
		assoc := largeBytes / bytesPerEntry / metadataSets
		t.store = newStore(assoc, cfg.Replacement == Hawkeye, t.pred)
		t.store.resize(0) // start with no partition until proven useful
		t.sizer = newSizer(cfg.EpochAccesses)
		if cfg.Mode == DynamicUtility {
			// Way costs on the per-core 2MB/16-way LLC view.
			bytesPerWay := metadataSets * mem.LineSize
			t.sizer.utility = newDataUtility(16,
				(smallBytes+bytesPerWay/2)/bytesPerWay,
				(largeBytes+bytesPerWay/2)/bytesPerWay)
		}
	case DynamicLadder:
		assoc := ladderRungs[len(ladderRungs)-1] / bytesPerEntry / metadataSets
		t.store = newStore(assoc, cfg.Replacement == Hawkeye, t.pred)
		t.store.resize(0)
		t.ladder = newTimeShareSizer(ladderRungs, cfg.EpochAccesses)
	}
	if cfg.Replacement == Hawkeye && (cfg.Mode == Static || cfg.Mode == DynamicLadder) {
		t.trainer = replacement.NewSandbox(sampleEvery, maxTracked, t.store.maxAssoc)
	}
	return t
}

// Name implements prefetch.Prefetcher.
func (t *Triage) Name() string {
	switch t.cfg.Mode {
	case Dynamic:
		return "triage-dynamic"
	case DynamicUtility:
		return "triage-dynutil"
	case DynamicLadder:
		return "triage-ladder"
	case Unlimited:
		return "triage-unlimited"
	default:
		return fmt.Sprintf("triage-%dKB", t.cfg.StaticBytes>>10)
	}
}

// SetDegree implements prefetch.DegreeSetter.
func (t *Triage) SetDegree(d int) {
	if d >= 1 {
		t.cfg.Degree = d
	}
}

// Bind implements prefetch.EnvUser.
func (t *Triage) Bind(env prefetch.Env) { t.env = env }

// BindEventTrace attaches a structured event trace that receives
// Hawkeye predictor-training decisions (telemetry; optional).
func (t *Triage) BindEventTrace(tr *telemetry.EventTrace) { t.tr = tr }

// LookupCounts returns cumulative metadata-store lookups and hits
// (the sampler derives the per-interval hit rate from the deltas).
func (t *Triage) LookupCounts() (lookups, hits uint64) {
	return t.lookups, t.lookupHits
}

// notePredictor records one applied predictor update in the event
// trace. Call immediately before hint.apply.
func (t *Triage) notePredictor(hint trainHint) {
	if t.tr == nil || !hint.valid {
		return
	}
	a := int64(0)
	if hint.optHit {
		a = 1
	}
	t.tr.Emit(telemetry.Event{
		Tick: t.lastTick, Kind: telemetry.EvPredictor,
		Core: t.lastCore, PC: hint.pc, A: a,
	})
}

// DesiredMetadataBytes reports how much LLC capacity Triage wants for
// metadata right now; the simulator carves the corresponding ways out
// of the LLC (0 in Unlimited mode — that configuration models a free
// side table).
func (t *Triage) DesiredMetadataBytes() int {
	switch t.cfg.Mode {
	case Static:
		return t.cfg.StaticBytes
	case Dynamic, DynamicUtility:
		return t.sizer.desiredBytes()
	case DynamicLadder:
		return t.ladder.desiredBytes()
	default:
		return 0
	}
}

// MetadataAccesses returns the number of LLC accesses made on behalf of
// metadata (1 energy unit each in Fig. 13's model).
func (t *Triage) MetadataAccesses() uint64 { return t.metadataAccesses }

// ReuseCounts returns per-trigger metadata reuse counts (Fig. 1). Only
// Unlimited mode tracks every entry; other modes return nil.
func (t *Triage) ReuseCounts() []uint64 {
	if t.cfg.Mode != Unlimited {
		return nil
	}
	out := make([]uint64, 0, len(t.unl))
	for _, e := range t.unl {
		out = append(out, e.uses)
	}
	return out
}

// Train implements prefetch.Prefetcher. Per Fig. 4, Triage observes L2
// misses and prefetch hits: it probes the metadata store with the
// incoming address to generate prefetch candidates, then updates the
// Training Unit and the metadata store with the newly observed pair.
func (t *Triage) Train(ev prefetch.Event) []prefetch.Request {
	if !ev.Miss && !ev.PrefetchHit {
		return nil
	}
	t.lastTick, t.lastCore = ev.Tick, int32(ev.Core)
	reqs := t.predict(ev)
	t.learn(ev)
	return reqs
}

// predict chains metadata lookups from ev.Line, one per degree step.
// The returned slice is scratch owned by the prefetcher; callers
// consume it before the next Train.
func (t *Triage) predict(ev prefetch.Event) []prefetch.Request {
	t.reqs = t.reqs[:0]
	cur := ev.Line
	delay := t.cfg.LLCLatencyTicks
	for i := 0; i < t.cfg.Degree; i++ {
		next, hint, ok := t.lookupOnce(cur, ev.PC)
		if !ok {
			break
		}
		req := prefetch.Request{Line: next, PC: ev.PC, IssueDelay: delay}
		t.reqs = append(t.reqs, req)
		// Defer the Hawkeye predictor update until the outcome of this
		// prefetch is known (§3: train only on useful prefetches).
		t.pending[next] = pendingObs{hint: hint}
		t.issued++
		cur = next
		delay += t.cfg.LLCLatencyTicks
	}
	if len(t.reqs) == 0 {
		return nil
	}
	return t.reqs
}

// lookupOnce performs one metadata lookup, charging one LLC metadata
// access, and returns the successor if present plus the deferred
// predictor-training hint for the access.
func (t *Triage) lookupOnce(l mem.Line, pc uint64) (mem.Line, trainHint, bool) {
	t.lookups++
	if t.cfg.Mode == Unlimited {
		e, ok := t.unl[l]
		if ok {
			e.uses++
			t.unl[l] = e
			t.lookupHits++
			return e.next, trainHint{}, true
		}
		return 0, trainHint{}, false
	}
	t.metadataAccesses++
	t.env.LLCMetadataAccess(1)
	hint := t.observe(l, pc)
	next, way, ok := t.store.lookup(l)
	if !ok {
		// Metadata miss: its predictor update applies immediately (a
		// miss cannot be a redundant prefetch).
		t.notePredictor(hint)
		hint.apply(t.pred)
		return 0, trainHint{}, false
	}
	t.lookupHits++
	t.store.promote(l, way, pc)
	return next, hint, true
}

// learn records the PC-localized pair (lastAddr[PC] -> ev.Line).
func (t *Triage) learn(ev prefetch.Event) {
	var prev mem.Line
	slot, had := t.tu.Find(ev.PC)
	if had {
		prev = mem.Line(*t.tu.At(slot))
		*t.tu.At(slot) = uint64(ev.Line)
	} else {
		// Insert evicts the oldest PC when full (FIFO: updates above
		// never promote, so tail order is insertion order).
		t.tu.Insert(ev.PC, uint64(ev.Line))
	}
	if !had || prev == ev.Line {
		return
	}
	if t.cfg.Mode == Unlimited {
		e, ok := t.unl[prev]
		switch {
		case !ok:
			t.unl[prev] = unlEntry{next: ev.Line, conf: true}
		case e.next == ev.Line:
			e.conf = true
			t.unl[prev] = e
		case e.conf:
			e.conf = false
			t.unl[prev] = e
		default:
			t.unl[prev] = unlEntry{next: ev.Line, conf: true, uses: e.uses}
		}
		return
	}
	t.metadataAccesses++
	t.env.LLCMetadataAccess(1)
	t.store.insert(prev, ev.Line, ev.PC)
}

// observe feeds a metadata access into the sandboxes (which see every
// access) and returns the deferred predictor-training hint. In Dynamic
// and Ladder modes an epoch boundary also re-applies the store size.
func (t *Triage) observe(l mem.Line, pc uint64) trainHint {
	if t.ladder != nil && t.ladder.observe(l) {
		t.store.resize(t.ladder.desiredBytes() / bytesPerEntry / metadataSets)
	}
	var hint trainHint
	if z := t.sizer; z != nil {
		if z.utility != nil {
			// The same event is an LLC data access: feed the utility model.
			z.utility.observe(l)
		}
		var epochEnd bool
		hint, epochEnd = z.observe(l, pc)
		if epochEnd {
			t.store.resize(z.desiredBytes() / bytesPerEntry / metadataSets)
		}
	}
	if t.trainer != nil {
		hint = hintAt(t.trainer.Access(storeSet(l), l, pc), 0)
	}
	if t.cfg.Replacement != Hawkeye {
		return trainHint{} // LRU metadata replacement needs no predictor
	}
	return hint
}

// PrefetchOutcome implements prefetch.OutcomeObserver: the deferred
// predictor update fires only if the prefetch was useful (missed in
// cache); redundant prefetch reuse never trains the predictor (§3).
func (t *Triage) PrefetchOutcome(req prefetch.Request, missedCache bool) {
	p, ok := t.pending[req.Line]
	if !ok {
		return
	}
	delete(t.pending, req.Line)
	if !missedCache {
		t.redundant++
		return
	}
	t.usefulFeedback++
	t.notePredictor(p.hint)
	p.hint.apply(t.pred)
}
