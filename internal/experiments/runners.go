package experiments

import (
	"fmt"
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
	// retired-instruction interval to every run; cached single-core
	// runs keep their JSONL series retrievable via Runner.SampleSeries.
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

// runSingle simulates one benchmark on a single-core Table 1 machine,
// optionally mutated (ad hoc cells: capacity-loss-free stores, LLC
// policy and latency variants). The reader and prefetcher are built
// after mutate, once, for the machine it leaves; chase graphs come from
// g (nil shuffles them privately).
func runSingle(p Params, g *workload.Graphs, spec workload.Spec, factory pfFactory, mutate func(*sim.Options), tel *telemetry.Hooks) sim.Result {
	opts := sim.Options{
		Machine:             config.Default(1),
		WarmupInstructions:  p.Warmup,
		MeasureInstructions: p.Measure,
		Telemetry:           tel,
		CheckEvery:          p.CheckEvery,
	}
	if mutate != nil {
		mutate(&opts)
	}
	opts.Workloads = []trace.Reader{spec.NewFrom(g, p.Seed, 0)}
	opts.Prefetchers = []prefetch.Prefetcher{factory(opts.Machine)}
	machine, err := sim.New(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", spec.Name, err))
	}
	return machine.Run()
}

// runMix simulates a multi-programmed mix on an N-core machine, one
// benchmark and one prefetcher instance per core.
func runMix(p Params, g *workload.Graphs, mix workload.MixSpec, factory pfFactory, tel *telemetry.Hooks) sim.Result {
	cores := len(mix.Specs)
	m := config.Default(cores)
	ws := make([]trace.Reader, cores)
	pfs := make([]prefetch.Prefetcher, cores)
	for c, spec := range mix.Specs {
		ws[c] = spec.NewFrom(g, p.Seed+uint64(c)*7919, mem.Addr(c+1)<<40)
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
		panic(fmt.Sprintf("experiments: %s: %v", mix.Name, err))
	}
	return machine.Run()
}

// runRate simulates N copies of one benchmark on an N-core machine
// (the CloudSuite server setup).
func runRate(p Params, g *workload.Graphs, spec workload.Spec, cores int, factory pfFactory, tel *telemetry.Hooks) sim.Result {
	m := config.Default(cores)
	ws := make([]trace.Reader, cores)
	pfs := make([]prefetch.Prefetcher, cores)
	for c := 0; c < cores; c++ {
		ws[c] = spec.NewFrom(g, p.Seed+uint64(c)*104729, mem.Addr(c+1)<<40)
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
		panic(fmt.Sprintf("experiments: %s x%d: %v", spec.Name, cores, err))
	}
	return machine.Run()
}
