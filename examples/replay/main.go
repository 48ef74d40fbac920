// Replay: materialize a benchmark into a TRC2 trace file, then replay
// the file through the simulator — the decoupled workflow for
// byte-reproducible runs and for bringing external traces (anything
// convertible to TRC2, as tracegen -import does) into the harness.
//
// Run with:
//
//	go run ./examples/replay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "triage-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "xalancbmk.trc2")

	// 1. Materialize 3M instructions of the xalancbmk-like workload.
	spec, _ := workload.ByName("xalancbmk")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := trace.NewWriterV2(f)
	r := spec.New(42, 0)
	const n = 3_000_000
	for i := 0; i < n; i++ {
		rec, _ := r.Next()
		if err := w.Write(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("materialized %d instructions -> %s (%.1f MB, %.2f B/instr)\n",
		n, filepath.Base(path), float64(st.Size())/(1<<20), float64(st.Size())/n)

	// 2. Replay the file twice — baseline and Triage — looping it so
	// the measurement window is fully covered.
	run := func(pf prefetch.Prefetcher) sim.Result {
		g, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer g.Close()
		// Ask for one record past n so the read runs into the clean end,
		// where the footer verifies the count and content hash.
		tr := trace.NewReaderV2(g)
		recs := trace.Collect(tr, n+1)
		if err := tr.Err(); err != nil || len(recs) != n {
			log.Fatalf("reading %s: %d records, err %v", path, len(recs), err)
		}
		m, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{trace.NewLoopReader(recs)},
			Prefetchers:         []prefetch.Prefetcher{pf},
			WarmupInstructions:  2_000_000,
			MeasureInstructions: 1_000_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		return m.Run()
	}

	base := run(nil)
	machine := config.Default(1)
	tri := core.New(core.Config{
		Mode:            core.Static,
		StaticBytes:     1 << 20,
		LLCLatencyTicks: uint64(machine.LLCLatency) * dram.TicksPerCycle,
	})
	with := run(tri)
	fmt.Printf("replayed baseline IPC %.4f, Triage IPC %.4f, speedup %.3f\n",
		base.IPC(), with.IPC(), with.SpeedupOver(base))

	// 3. Replays are byte-deterministic: same file, same result.
	again := run(nil)
	if again.IPC() == base.IPC() {
		fmt.Println("determinism check: identical IPC on replay — OK")
	} else {
		fmt.Printf("determinism check FAILED: %.6f vs %.6f\n", base.IPC(), again.IPC())
	}
}
