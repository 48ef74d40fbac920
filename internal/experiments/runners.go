package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/bo"
	"repro/internal/prefetch/domino"
	"repro/internal/prefetch/hybrid"
	"repro/internal/prefetch/misb"
	"repro/internal/prefetch/sms"
	"repro/internal/prefetch/stms"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Params controls experiment scale. The defaults trade fidelity for
// wall-clock time; pass larger windows (cmd/experiments -full) to
// tighten the numbers.
type Params struct {
	// Warmup and Measure are per-core instruction counts for
	// single-core runs.
	Warmup  uint64
	Measure uint64
	// MultiWarmup/MultiMeasure are the per-core counts for
	// multi-programmed runs (kept smaller: N cores multiply the work).
	MultiWarmup  uint64
	MultiMeasure uint64
	// Mixes is the number of multi-programmed mixes per experiment
	// (the paper uses 30 irregular + 50 mixed; scale down for speed).
	Mixes int
	// Seed drives mix construction and generator schedules.
	Seed uint64
	// SampleEvery, when non-zero, attaches a telemetry sampler at this
	// retired-instruction interval to every run; memoized cells keep
	// their JSONL series retrievable via Runner.SampleSeries.
	SampleEvery uint64
	// Deadline, when non-zero, bounds each run's wall-clock time; a run
	// that exceeds it is aborted cooperatively and its cell fails with
	// an "aborted" RunError instead of hanging the pool.
	Deadline time.Duration
	// StallTimeout, when non-zero, aborts a run whose retired-
	// instruction count stops advancing for this long (a wedged
	// simulation on an otherwise healthy pool).
	StallTimeout time.Duration
	// CheckEvery, when non-zero, enables the simulator's structural
	// invariant sweep at this stepped-instruction interval (debug mode;
	// see sim.Options.CheckEvery).
	CheckEvery uint64
	// FaultHook, when non-nil, is consulted before every run with the
	// run's cache key; a non-nil error fails the run, unsimulated, with
	// a "fault" RunError naming the key. Test seam for failure handling
	// — leave nil in production.
	FaultHook func(key string) error
}

// DefaultParams returns the quick configuration.
func DefaultParams() Params {
	return Params{
		Warmup:       4_000_000,
		Measure:      4_000_000,
		MultiWarmup:  2_000_000,
		MultiMeasure: 1_500_000,
		Mixes:        8,
		Seed:         42,
	}
}

// FullParams returns the paper-scale configuration (slower).
func FullParams() Params {
	return Params{
		Warmup:       10_000_000,
		Measure:      8_000_000,
		MultiWarmup:  3_000_000,
		MultiMeasure: 2_000_000,
		Mixes:        30,
		Seed:         42,
	}
}

// pfFactory builds a fresh prefetcher for one core of machine m.
// Fresh instances per run keep state isolated.
type pfFactory func(m config.Machine) prefetch.Prefetcher

func llcTicks(m config.Machine) uint64 {
	return uint64(m.LLCLatency+m.LLCExtraLatency) * dram.TicksPerCycle
}

// The named prefetcher configurations used across figures.
func pfNone(config.Machine) prefetch.Prefetcher { return nil }

func pfBO(config.Machine) prefetch.Prefetcher { return bo.New() }

func pfSMS(config.Machine) prefetch.Prefetcher { return sms.New() }

func pfSTMS(config.Machine) prefetch.Prefetcher { return stms.New() }

func pfDomino(config.Machine) prefetch.Prefetcher { return domino.New() }

func pfMISB(config.Machine) prefetch.Prefetcher { return misb.New() }

func pfTriageStatic(bytes int) pfFactory {
	return func(m config.Machine) prefetch.Prefetcher {
		return core.New(core.Config{
			Mode: core.Static, StaticBytes: bytes, LLCLatencyTicks: llcTicks(m),
		})
	}
}

func pfTriageDyn(m config.Machine) prefetch.Prefetcher {
	return core.New(core.Config{Mode: core.Dynamic, LLCLatencyTicks: llcTicks(m)})
}

func pfTriageDynUtil(m config.Machine) prefetch.Prefetcher {
	return core.New(core.Config{Mode: core.DynamicUtility, LLCLatencyTicks: llcTicks(m)})
}

func pfTriageUnlimited(m config.Machine) prefetch.Prefetcher {
	return core.New(core.Config{Mode: core.Unlimited, LLCLatencyTicks: llcTicks(m)})
}

func pfHybrid(a, b pfFactory) pfFactory {
	return func(m config.Machine) prefetch.Prefetcher {
		return hybrid.New(a(m), b(m))
	}
}

// machineChange is a single-core cell's departure from Table 1's
// machine, held as data so that it names the cell. The zero value is
// Table 1's machine.
type machineChange struct {
	LLCBytes     int    // LLC capacity per core; 0 keeps Table 1's
	ExtraLatency int    // cycles added to every LLC access, data and metadata (§4.6)
	LLCPolicy    string // LLC data replacement policy; "" keeps the simulator's
	FreeStore    bool   // Triage's metadata store takes no LLC capacity (Figs. 7, 9)
}

// cellKey is the key of bench under configuration cfg on the changed
// machine: "bench/config" on Table 1's (an LLC of Table 1's size is no
// change), with one segment per changed field between the two on any
// other.
func (ch machineChange) cellKey(bench, cfg string) string {
	parts := []string{bench}
	if ch.LLCBytes != 0 && ch.LLCBytes != config.Default(1).LLCBytesPerCore {
		parts = append(parts, fmt.Sprintf("llc%dKB", ch.LLCBytes>>10))
	}
	if ch.ExtraLatency != 0 {
		parts = append(parts, fmt.Sprintf("lat+%d", ch.ExtraLatency))
	}
	if ch.LLCPolicy != "" {
		parts = append(parts, "llcpol-"+ch.LLCPolicy)
	}
	if ch.FreeStore {
		parts = append(parts, "freestore")
	}
	return strings.Join(append(parts, cfg), "/")
}

// runSingle simulates one benchmark on a single-core Table 1 machine
// changed by ch. The reader and prefetcher are built once, for the
// changed machine; chase graphs come from g (nil shuffles them
// privately).
func runSingle(p Params, g *workload.Graphs, spec workload.Spec, factory pfFactory, ch machineChange, tel *telemetry.Hooks) sim.Result {
	m := config.Default(1)
	if ch.LLCBytes != 0 {
		m.LLCBytesPerCore = ch.LLCBytes
	}
	m.LLCExtraLatency = ch.ExtraLatency
	machine, err := sim.New(sim.Options{
		Machine:             m,
		Workloads:           []trace.Reader{spec.NewFrom(g, p.Seed, 0)},
		Prefetchers:         []prefetch.Prefetcher{factory(m)},
		LLCPolicy:           ch.LLCPolicy,
		NoCapacityLoss:      ch.FreeStore,
		WarmupInstructions:  p.Warmup,
		MeasureInstructions: p.Measure,
		Telemetry:           tel,
		CheckEvery:          p.CheckEvery,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", spec.Name, err))
	}
	return machine.Run()
}

// runCores simulates specs[c] on core c of an N-core Table 1 machine,
// one prefetcher instance per core. Core c's generator is seeded
// p.Seed + c*stride (multi-programmed mixes step by 7919, rate mode's N
// copies by 104729) and its addresses start at (c+1)<<40.
func runCores(p Params, g *workload.Graphs, specs []workload.Spec, stride uint64, factory pfFactory, tel *telemetry.Hooks) sim.Result {
	m := config.Default(len(specs))
	ws := make([]trace.Reader, len(specs))
	pfs := make([]prefetch.Prefetcher, len(specs))
	for c, spec := range specs {
		ws[c] = spec.NewFrom(g, p.Seed+uint64(c)*stride, mem.Addr(c+1)<<40)
		pfs[c] = factory(m)
	}
	machine, err := sim.New(sim.Options{
		Machine:             m,
		Workloads:           ws,
		Prefetchers:         pfs,
		WarmupInstructions:  p.MultiWarmup,
		MeasureInstructions: p.MultiMeasure,
		Telemetry:           tel,
		CheckEvery:          p.CheckEvery,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %d cores: %v", len(specs), err))
	}
	return machine.Run()
}
