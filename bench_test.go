// Package repro's root benchmarks time the simulator's hot machinery
// rather than a figure: the batched step loop, the loop with a Triage
// prefetcher trained on every L2 event, a warm-snapshot restore, and
// each prefetcher's training cost. Run them with
//
//	go test -run '^$' -bench . .
//
// The paper's tables and figures come from cmd/experiments, and
// end-to-end timing is perfbench's job (bash perfbench/bench.sh).
package repro

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/bo"
	"repro/internal/prefetch/domino"
	"repro/internal/prefetch/misb"
	"repro/internal/prefetch/sms"
	"repro/internal/prefetch/stms"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func llcTicks1() uint64 {
	m := config.Default(1)
	return uint64(m.LLCLatency) * dram.TicksPerCycle
}

func mkTriage1M() prefetch.Prefetcher {
	return core.New(core.Config{Mode: core.Static, StaticBytes: 1 << 20, LLCLatencyTicks: llcTicks1()})
}

// BenchmarkStepLoop measures the raw batched step loop: one core, no
// prefetcher, so nothing but dispatch, cache lookups, and retirement.
func BenchmarkStepLoop(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	const instr = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{spec.New(uint64(i)+1, 0)},
			MeasureInstructions: instr,
		})
		if err != nil {
			b.Fatal(err)
		}
		machine.Run()
	}
	b.ReportMetric(float64(b.N)*instr/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkPrefetchDispatch measures the step loop with a Triage
// prefetcher attached: every L2 event is an interface call to its
// Train method.
func BenchmarkPrefetchDispatch(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	const instr = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{spec.New(uint64(i)+1, 0)},
			Prefetchers:         []prefetch.Prefetcher{mkTriage1M()},
			MeasureInstructions: instr,
		})
		if err != nil {
			b.Fatal(err)
		}
		machine.Run()
	}
	b.ReportMetric(float64(b.N)*instr/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkWarmupSnapshot measures a warm-restored run end to end: a
// cold 2M+200K run leaves the snapshot of where it stopped in the
// process cache, then every iteration measures a window 200K longer,
// restoring that snapshot and stepping only the 200K instructions its
// window adds.
func BenchmarkWarmupSnapshot(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	const (
		warm    = 2_000_000
		measure = 200_000
	)
	mk := func(window uint64) *sim.Machine {
		machine, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{spec.New(1, 0)},
			Prefetchers:         []prefetch.Prefetcher{mkTriage1M()},
			WarmupInstructions:  warm,
			MeasureInstructions: window,
			WarmKey:             "bench/warm-snapshot/mcf/triage-1m",
		})
		if err != nil {
			b.Fatal(err)
		}
		return machine
	}
	sim.GlobalWarmCache().Reset()
	mk(measure).Run() // cold: simulates the whole run and stores the snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk(2 * measure).Run()
	}
	b.StopTimer()
	hits, _, _ := sim.GlobalWarmCache().Stats()
	if hits < uint64(b.N) {
		b.Fatalf("warm restores: %d of %d runs", hits, b.N)
	}
	b.ReportMetric(float64(b.N)*(warm+2*measure)/b.Elapsed().Seconds()/1e6, "effective-Minstr/s")
}

// BenchmarkPrefetcherTrainCost times one Train call per prefetcher on
// a pointer-chase stream, so a regression in any prefetcher's cost
// shows up in -bench runs.
func BenchmarkPrefetcherTrainCost(b *testing.B) {
	gens := map[string]prefetch.Prefetcher{
		"bo":     bo.New(),
		"sms":    sms.New(),
		"stms":   stms.New(),
		"domino": domino.New(),
		"misb":   misb.New(),
		"triage": mkTriage1M().(*core.Triage),
	}
	for name, pf := range gens {
		b.Run(name, func(b *testing.B) {
			r := workload.NewChase(workload.ChaseParams{
				Nodes: 64 << 10, Streams: 2, HotFrac: 0.5, HotProb: 0.8, RunLen: 128, Gap: 0,
			}, 9, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, _ := r.Next()
				if rec.Op != trace.Load {
					continue
				}
				pf.Train(prefetch.Event{PC: rec.PC, Line: mem.LineOf(rec.Addr), Miss: true, Tick: uint64(i)})
			}
		})
	}
}
