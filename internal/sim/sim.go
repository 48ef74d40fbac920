// Package sim is the trace-driven performance simulator: an analytic
// out-of-order core model (128-entry ROB, 4-wide dispatch and retire)
// over the cache hierarchy of package cache and the DRAM model of
// package dram, following the paper's methodology (§4.1).
//
// Timing works in ticks (4 per core cycle, matching the 4-wide
// pipeline). Each instruction dispatches one tick after its predecessor
// but no earlier than the retirement of the instruction ROB-size ahead
// of it; loads complete when the hierarchy returns their data, with
// pointer-chasing loads (Record.LoadDep) additionally serialized
// behind the load they depend on. This O(1)-per-instruction model captures
// memory-level parallelism, ROB stalls on long misses, and prefetch
// timeliness without an event queue.
package sim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	// Machine is the hardware configuration (Table 1 defaults via
	// config.Default).
	Machine config.Machine
	// Workloads supplies one instruction stream per core. Streams that
	// end are restarted only if they are LoopReaders; synthetic
	// generators are endless.
	Workloads []trace.Reader
	// Prefetchers holds the per-core L2 prefetcher (nil entries = none).
	Prefetchers []prefetch.Prefetcher
	// LLCPolicy selects the LLC replacement policy ("lru" default,
	// "hawkeye").
	LLCPolicy string
	// WarmupInstructions per core run before statistics reset.
	WarmupInstructions uint64
	// MeasureInstructions per core define the measurement window.
	MeasureInstructions uint64
	// NoCapacityLoss gives Triage its metadata store for free (Fig. 9's
	// "assuming no loss in LLC capacity" study).
	NoCapacityLoss bool
	// Telemetry optionally attaches a sampler, event trace, progress
	// sink, and/or run watch to the run. Nil (or nil fields) disables
	// each piece at the cost of one predictable branch per instruction.
	Telemetry *telemetry.Hooks
	// WarmKey, when non-empty, enables warm-state snapshot reuse: the
	// machine state where the first run under this key stops (the end
	// of its measurement window) is cached process-wide, and a later run
	// with the same key and a window at least as long restores it and
	// steps only the instructions its longer window adds. The key MUST
	// name the whole run prefix, not only the warmup: machine
	// configuration, workload construction (generator, seed, address
	// base), prefetcher configuration and warmup window, which together
	// fix the machine state at every instruction of the run whatever the
	// measurement window (the snapshot records that window itself). Two
	// runs with equal keys must step through identical states. The
	// simulator independently verifies the machine-shape part of that
	// contract (see warmSignature) and runs cold on any mismatch. Reuse
	// is disabled automatically when an event trace is attached or
	// CheckEvery is set (see warmEligible).
	WarmKey string
	// CheckEvery, when non-zero, asserts the structural invariants of
	// every simulated component (caches, MSHR rings, DRAM tables, Triage
	// metadata store, flat LRU chains) every CheckEvery stepped
	// instructions, and once more at the end of the run. A violation
	// panics with the failing invariant. Debug mode: the sweep is
	// O(machine state), so keep the interval coarse.
	CheckEvery uint64
}

func (o *Options) validate() error {
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	if len(o.Workloads) != o.Machine.Cores {
		return fmt.Errorf("sim: %d workloads for %d cores", len(o.Workloads), o.Machine.Cores)
	}
	if o.Prefetchers != nil && len(o.Prefetchers) != o.Machine.Cores {
		return fmt.Errorf("sim: %d prefetchers for %d cores", len(o.Prefetchers), o.Machine.Cores)
	}
	if o.MeasureInstructions == 0 {
		return fmt.Errorf("sim: MeasureInstructions must be > 0")
	}
	return nil
}

// coreState is the per-core analytic pipeline state.
type coreState struct {
	reader trace.Reader

	retire       []uint64 // ring of the last ROB retire ticks
	head         int
	lastDispatch uint64
	lastRetire   uint64

	// loadDone is a ring of the completion ticks of the most recent
	// loads, consulted by LoadDep-serialized loads (pointer chases).
	// Its length is a power of two so the dependency lookup is a mask.
	loadDone [16]uint64
	loadHead int

	instructions uint64 // since current phase start
	loads        uint64
	loadLatTicks uint64 // summed post-dependency load latencies
	startTick    uint64 // measurement window start
	consumed     uint64 // trace records drawn from reader, all phases
	finished     bool
	exhausted    bool

	// frozen captures the core's counters the moment it crosses the
	// measurement target; the core keeps running afterwards to sustain
	// contention (as the paper does by restarting early finishers) but
	// its reported numbers stop here.
	frozen struct {
		instructions uint64
		loads        uint64
		loadLatTicks uint64
		endTick      uint64
		l2Misses     uint64
	}
}

func (cs *coreState) freeze(l2Misses uint64) {
	cs.finished = true
	cs.frozen.instructions = cs.instructions
	cs.frozen.loads = cs.loads
	cs.frozen.loadLatTicks = cs.loadLatTicks
	cs.frozen.endTick = cs.lastRetire
	cs.frozen.l2Misses = l2Misses
}

// Machine is a runnable simulation instance.
type Machine struct {
	opts  Options
	hier  *hierarchy
	cores []*coreState
	steps uint64 // total instructions stepped, all cores and phases

	// Telemetry state (see telemetry.go).
	sampler *telemetry.Sampler
	samp    sampleState

	progress        telemetry.ProgressSink
	watch           *telemetry.RunWatch
	progressPending uint64
	trackProgress   bool // progress != nil || watch != nil, hoisted

	// checkCountdown counts down to the next invariant sweep; 0 while
	// invariant checking is off (same one-compare idle cost as sampling).
	checkCountdown uint64
}

// estimator is implemented by idealized prefetchers that report
// estimated metadata traffic (STMS, ISB idealized models).
type estimator interface{ EstimatedMetadataTransfers() uint64 }

// metaCounter is implemented by MISB, which counts its off-chip
// metadata accesses.
type metaCounter interface{ OffChipMetadataAccesses() uint64 }

// Aborted is the panic value of a run cancelled through its RunWatch
// (deadline or stall watchdog). The experiment engine recovers it and
// fails the cell with the reason attached.
type Aborted struct {
	Reason       string
	Instructions uint64
}

func (a *Aborted) Error() string {
	return fmt.Sprintf("simulation aborted after %d instructions: %s", a.Instructions, a.Reason)
}

// progressChunk is how many stepped instructions accumulate before one
// ProgressSink.Add call (coarse enough to keep atomics off the hot
// path).
const progressChunk = 1 << 14

// New constructs a Machine; it returns an error for inconsistent
// options.
func New(opts Options) (*Machine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	pfs := opts.Prefetchers
	if pfs == nil {
		pfs = make([]prefetch.Prefetcher, opts.Machine.Cores)
	}
	// Multi-core machines model DRAM channel/bank contention (paper
	// methodology); a single core gets one fixed-latency bandwidth pipe.
	detailed := opts.Machine.Cores > 1
	var tr *telemetry.EventTrace
	if opts.Telemetry != nil {
		tr = opts.Telemetry.Events
	}
	m := &Machine{
		opts: opts,
		hier: newHierarchy(opts.Machine, pfs, opts.LLCPolicy, detailed, opts.NoCapacityLoss, tr),
	}
	if opts.Telemetry != nil {
		m.sampler = opts.Telemetry.Sampler
		m.progress = opts.Telemetry.Progress
		m.watch = opts.Telemetry.Watch
		if tr != nil {
			for _, p := range pfs {
				bindEventTrace(p, tr)
			}
		}
	}
	m.trackProgress = m.progress != nil || m.watch != nil
	m.checkCountdown = opts.CheckEvery
	for c := 0; c < opts.Machine.Cores; c++ {
		m.cores = append(m.cores, &coreState{
			reader: opts.Workloads[c],
			retire: make([]uint64, opts.Machine.ROBEntries),
		})
	}
	return m, nil
}

// Run executes warmup then measurement and returns the results. Each
// core runs until it has retired MeasureInstructions in the measurement
// window; cores that finish early keep executing (so contention is
// sustained, as the paper does by restarting benchmarks) but their
// statistics freeze at the finish line.
func (m *Machine) Run() Result {
	warm := m.opts.WarmupInstructions
	measure := m.opts.MeasureInstructions

	// Warmup phase: early finishers simply stop (no stats involved). A
	// cached warm-state snapshot (same WarmKey) replaces the warmup and
	// the part of the measurement window its run already stepped.
	reuse := m.warmEligible()
	if !(reuse && m.tryRestoreWarm()) {
		if warm > 0 {
			m.phase(warm, false)
		}
		m.hier.resetStats()
		for _, cs := range m.cores {
			cs.instructions = 0
			cs.loads = 0
			cs.loadLatTicks = 0
			cs.startTick = cs.lastRetire
			cs.finished = false
		}
		m.startSampling()
	}

	// Measurement phase: early finishers keep running to sustain
	// contention, with their stats frozen at the finish line. Because
	// contention is always sustained, the state at every instruction of
	// this phase is the same whatever the target, which is what lets a
	// later, longer run resume the snapshot taken here.
	m.phase(measure, true)
	if reuse {
		m.saveWarm()
	}

	// Final flush deliberately skips the cancellation check: a cancel
	// racing a run that just finished must not fail the finished run.
	if m.progressPending > 0 {
		if m.progress != nil {
			m.progress.Add(m.progressPending)
		}
		if m.watch != nil {
			m.watch.Add(m.progressPending)
		}
		m.progressPending = 0
	}
	if m.opts.CheckEvery > 0 {
		if err := m.CheckInvariants(); err != nil {
			panic(err)
		}
	}
	return m.collect()
}

// phase advances cores — always the one with the smallest dispatch time
// next, which keeps shared-resource timestamps coherent — until every
// core has executed target instructions. With sustain, cores that reach
// the target keep executing until the last core arrives.
//
// The scheduler picks a core and then lets it run a whole batch: while
// core i executes, every other core's dispatch clock is frozen, so i
// stays the pick exactly until its own clock passes the smallest other
// eligible clock (ties go to the lowest index, matching the ascending
// strict-< selection scan). Computing that budget once per batch
// amortizes the selection scan over runs of instructions without
// changing the instruction interleaving at all; a single-core machine
// runs each phase as one batch.
func (m *Machine) phase(target uint64, sustain bool) {
	remaining := 0
	for c, cs := range m.cores {
		if cs.exhausted || cs.instructions >= target {
			if !cs.finished {
				cs.freeze(m.hier.l2[c].Stats().Misses)
			}
			continue
		}
		remaining++
	}
	for remaining > 0 {
		// Pick the core with the earliest dispatch time among those
		// still allowed to run, and — in the same pass — the earliest
		// dispatch clock among the other eligible cores (the batch
		// budget: their clocks cannot move while the pick runs, so the
		// pick stays the scheduler's choice until it passes the budget,
		// or meets it with a higher index). Both minima use the same
		// ascending strict-< tie-break the two separate scans had.
		var next *coreState
		idx := -1
		minT := ^uint64(0)
		budget := ^uint64(0)
		budgetIdx := -1
		for i, cs := range m.cores {
			if cs.exhausted || (cs.finished && !sustain) {
				continue
			}
			if d := cs.lastDispatch; d < minT {
				budget, budgetIdx = minT, idx
				minT, next, idx = d, cs, i
			} else if d < budget {
				budget, budgetIdx = d, i
			}
		}
		if next == nil {
			return
		}
		if budgetIdx < 0 {
			budgetIdx = len(m.cores)
		}
		switch m.runBatch(idx, next, target, budget, idx < budgetIdx) {
		case batchExhausted:
			next.exhausted = true
			if !next.finished {
				next.freeze(m.hier.l2[idx].Stats().Misses)
				remaining--
			}
		case batchFroze:
			remaining--
		case batchYield:
			// Budget exceeded: fall through to reselect.
		}
	}
}

// batchOutcome reports why runBatch stopped stepping its core.
type batchOutcome int

const (
	batchYield     batchOutcome = iota // dispatch clock passed the budget
	batchFroze                         // crossed the phase target and froze
	batchExhausted                     // trace ended
)

// runBatch steps core c until it crosses the phase target, its trace
// ends, or its dispatch clock passes budget. Counters that must fire at
// exact global instruction counts — progress chunks, telemetry sample
// intervals, invariant-checker sweeps — are maintained per instruction
// inside the loop, so batching never shifts a polling point.
func (m *Machine) runBatch(c int, cs *coreState, target, budget uint64, tieOK bool) batchOutcome {
	hier := m.hier
	for {
		rec, ok := cs.reader.Next()
		if !ok {
			return batchExhausted
		}
		cs.consumed++
		// Dispatch: one tick (quarter cycle) after the previous
		// dispatch, gated by ROB availability.
		d := cs.lastDispatch + 1
		if robGate := cs.retire[cs.head]; robGate > d {
			d = robGate
		}
		var complete uint64
		switch rec.Op {
		case trace.Load:
			start := d
			if dep := int(rec.LoadDep); dep > 0 {
				// Pointer chase: the address depends on the dep-th most
				// recent load; execution cannot start before it completes.
				if dep > len(cs.loadDone) {
					dep = len(cs.loadDone)
				}
				i := (cs.loadHead - dep + len(cs.loadDone)) & (len(cs.loadDone) - 1)
				if t := cs.loadDone[i]; t > start {
					start = t
				}
			}
			complete = hier.load(c, rec.PC, mem.LineOf(rec.Addr), start)
			cs.loadLatTicks += complete - start
			cs.loadDone[cs.loadHead] = complete
			cs.loadHead = (cs.loadHead + 1) & (len(cs.loadDone) - 1)
			cs.loads++
		case trace.Store:
			hier.store(c, rec.PC, mem.LineOf(rec.Addr), d)
			complete = d + dram.TicksPerCycle
		default:
			complete = d + dram.TicksPerCycle
		}
		// In-order retirement, up to 4 per cycle (1 per tick).
		r := complete
		if min := cs.lastRetire + 1; min > r {
			r = min
		}
		cs.retire[cs.head] = r
		cs.head++
		if cs.head == len(cs.retire) {
			cs.head = 0
		}
		cs.lastDispatch = d
		cs.lastRetire = r
		cs.instructions++
		m.steps++
		if m.trackProgress {
			m.progressPending++
			if m.progressPending >= progressChunk {
				m.flushProgress()
			}
		}
		if m.samp.countdown > 0 {
			m.samp.countdown--
			if m.samp.countdown == 0 {
				m.takeSample()
				m.samp.countdown = m.sampler.Every()
			}
		}
		if m.checkCountdown > 0 {
			m.checkCountdown--
			if m.checkCountdown == 0 {
				m.checkCountdown = m.opts.CheckEvery
				if err := m.CheckInvariants(); err != nil {
					panic(err)
				}
			}
		}
		if !cs.finished && cs.instructions >= target {
			cs.freeze(hier.l2[c].Stats().Misses)
			return batchFroze
		}
		if d > budget || (d == budget && !tieOK) {
			return batchYield
		}
	}
}

// flushProgress reports the pending instruction chunk to the progress
// sink and run watch, then honors a pending cancellation. The panic
// unwinds the run; the experiment engine recovers the *Aborted and
// fails the cell.
func (m *Machine) flushProgress() {
	if m.progress != nil {
		m.progress.Add(m.progressPending)
	}
	if m.watch != nil {
		m.watch.Add(m.progressPending)
		if reason, ok := m.watch.Cancelled(); ok {
			panic(&Aborted{Reason: reason, Instructions: m.steps})
		}
	}
	m.progressPending = 0
}

// collect builds the Result from the measurement window.
func (m *Machine) collect() Result {
	res := Result{
		SimulatedInstructions:     m.steps,
		DRAM:                      m.hier.ram.Stats(),
		LLC:                       m.hier.llc.Stats(),
		TriageLLCMetadataAccesses: m.hier.triageMetaAccesses,
		PrefetchesIssued:          m.hier.pfIssued,
		PrefetchesRedundant:       m.hier.pfRedundant,
		PrefetchesDropped:         m.hier.pfDropped,
	}
	for c, cs := range m.cores {
		l2 := m.hier.l2[c].Stats()
		res.L2 = append(res.L2, l2)
		ticks := cs.frozen.endTick - cs.startTick
		avgWays := 0.0
		if m.hier.waySampleN > 0 {
			avgWays = m.hier.waySamples[c] / float64(m.hier.waySampleN)
		}
		avgLoad := 0.0
		if cs.frozen.loads > 0 {
			avgLoad = float64(cs.frozen.loadLatTicks) / float64(cs.frozen.loads) / dram.TicksPerCycle
		}
		res.Cores = append(res.Cores, CoreResult{
			Instructions:    cs.frozen.instructions,
			Cycles:          ticks / dram.TicksPerCycle,
			Loads:           cs.frozen.loads,
			L2DemandMisses:  cs.frozen.l2Misses,
			AvgMetadataWays: avgWays,
			AvgLoadCycles:   avgLoad,
		})
		res.PrefetchesUseful += l2.PrefetchUsed
	}
	for _, p := range m.hier.l2pf {
		walkParts(p, func(leaf prefetch.Prefetcher) {
			if mc, ok := leaf.(metaCounter); ok {
				res.MISBOffChipMetadataAccesses += mc.OffChipMetadataAccesses()
			}
			if e, ok := leaf.(estimator); ok {
				res.EstimatedMetadataTransfers += e.EstimatedMetadataTransfers()
			}
		})
	}
	return res
}
