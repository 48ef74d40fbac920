// Command sweep explores the design space beyond the paper's fixed
// points: metadata store size x prefetch degree x LLC capacity x
// replacement policy, on any benchmark, emitting CSV for plotting.
//
// Usage:
//
//	sweep -bench mcf -sizes 128,256,512,1024 -degrees 1,2,4 [-llc 1,2,4] [-repl lru,hawkeye] [-j N]
//
// Each configuration is simulated against its own no-prefetch baseline
// at the same LLC size, so the speedup isolates the prefetcher. -j
// runs up to N simulations concurrently; rows still print in sweep
// order, so the CSV is byte-identical for any -j.
//
// -resume DIR persists completed cells; an interrupted sweep rerun
// with the same flags simulates only the missing ones and emits
// identical CSV. -deadline/-stall abort stuck cells (rendered as
// ERROR rows, exit nonzero); -check N asserts simulator invariants
// every N instructions (see EXPERIMENTS.md "Fault tolerance").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		bench   = flag.String("bench", "mcf", "benchmark name")
		sizes   = flag.String("sizes", "128,256,512,1024", "metadata store sizes in KB")
		degrees = flag.String("degrees", "1", "prefetch degrees")
		llcs    = flag.String("llc", "2", "LLC sizes in MB")
		repls   = flag.String("repl", "hawkeye", "metadata replacement: lru,hawkeye")
		warmup  = flag.Uint64("warmup", 3_000_000, "warmup instructions")
		measure = flag.Uint64("measure", 2_000_000, "measured instructions")
		seed    = flag.Uint64("seed", 42, "workload seed")
		jobs    = flag.Int("j", runtime.GOMAXPROCS(0), "max simulations running concurrently")

		progress = flag.Bool("progress", false, "print a live progress line (cells done, Minstr/s, ETA) to stderr")

		resume = flag.String("resume", "", "checkpoint directory: completed cells persist here and an interrupted sweep restarts only the missing ones")
		check  = flag.Uint64("check", 0, "assert simulator structural invariants every N instructions (debug mode, 0 = off)")
	)
	prof := cliutil.AddProfile(flag.CommandLine)
	wd := cliutil.AddWatchdog(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	sizeList, err := parseInts(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	degreeList, err := parseInts(*degrees)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	llcList, err := parseInts(*llcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	replList := strings.Split(*repls, ",")

	// Every cell counts as one progress unit, plus the per-LLC baselines:
	// the cell count is known up front, so the ETA is exact in runs.
	cellCount := len(llcList) * (1 + len(sizeList)*len(degreeList)*len(replList))
	var prog *telemetry.PoolProgress
	if *progress {
		prog = telemetry.NewPoolProgress(cellCount)
		stop := telemetry.StartPrinter(os.Stderr, prog, 2*time.Second)
		defer stop()
	}
	mkHooks := func() *telemetry.Hooks {
		if prog == nil {
			return nil
		}
		return &telemetry.Hooks{Progress: prog}
	}

	var ck *experiments.Checkpoint
	if *resume != "" {
		// Sweep cell keys don't carry the instruction windows or seed, so
		// the store is stamped with a fingerprint of them: resuming with
		// different -warmup/-measure/-seed is refused, not silently mixed.
		fp := experiments.Params{Warmup: *warmup, Measure: *measure, Seed: *seed}.Fingerprint(config.Default(1))
		var err error
		ck, err = experiments.OpenCheckpoint(*resume, fp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	run := func(llcMB int, pf prefetch.Prefetcher, hooks *telemetry.Hooks) sim.Result {
		m := config.Default(1)
		m.LLCBytesPerCore = llcMB << 20
		// No warm-snapshot key: every cell key is distinct within a
		// sweep, so a stored snapshot would never be restored.
		machine, err := sim.New(sim.Options{
			Machine:             m,
			Workloads:           []trace.Reader{spec.New(*seed, 0)},
			Prefetchers:         []prefetch.Prefetcher{pf},
			WarmupInstructions:  *warmup,
			MeasureInstructions: *measure,
			Telemetry:           hooks,
			CheckEvery:          *check,
		})
		if err != nil {
			panic(err) // recovered by the pool into the cell's RunError
		}
		res := machine.Run()
		if prog != nil {
			prog.RunDone()
			prog.UnitDone()
		}
		return res
	}

	// Launch every point on the pool, then collect in sweep order so the
	// CSV is identical regardless of -j. Checkpointed cells resolve from
	// disk; Put runs inside the pooled closure so a cell completed but
	// not yet collected still persists before a kill.
	pool := experiments.NewPool(*jobs)
	if prog != nil {
		pool.SetProgress(prog)
	}
	restored := 0
	schedule := func(key string, job func(*telemetry.Hooks) sim.Result) *experiments.Future[sim.Result] {
		if ck != nil {
			if res, _, ok := ck.Get(key); ok {
				restored++
				return experiments.Resolved(res)
			}
		}
		return experiments.Go(pool, func() sim.Result {
			res := experiments.Guarded(key, *wd.Deadline, *wd.Stall, mkHooks, job)
			if ck != nil {
				ck.Put(key, res, nil)
			}
			return res
		})
	}
	baseFs := make([]*experiments.Future[sim.Result], len(llcList))
	cellFs := make(map[[4]int]*experiments.Future[sim.Result])
	for li, llcMB := range llcList {
		llcMB := llcMB
		baseKey := fmt.Sprintf("%s/llc%dMB/base", *bench, llcMB)
		baseFs[li] = schedule(baseKey, func(hooks *telemetry.Hooks) sim.Result {
			return run(llcMB, nil, hooks)
		})
		for si, sizeKB := range sizeList {
			for di, d := range degreeList {
				for ri, repl := range replList {
					llcMB, sizeKB, d := llcMB, sizeKB, d
					replName := strings.TrimSpace(repl)
					r := core.Hawkeye
					if replName == "lru" {
						r = core.LRU
					}
					key := fmt.Sprintf("%s/llc%dMB/%dKB/d%d/%s", *bench, llcMB, sizeKB, d, replName)
					cellFs[[4]int{li, si, di, ri}] = schedule(key, func(hooks *telemetry.Hooks) sim.Result {
						m := config.Default(1)
						tri := core.New(core.Config{
							Mode:            core.Static,
							StaticBytes:     sizeKB << 10,
							Degree:          d,
							Replacement:     r,
							LLCLatencyTicks: uint64(m.LLCLatency) * dram.TicksPerCycle,
						})
						return run(llcMB, tri, hooks)
					})
				}
			}
		}
	}

	failed := false
	cellFail := func(err *experiments.RunError) {
		failed = true
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		if len(err.Stack) > 0 {
			os.Stderr.Write(err.Stack)
		}
	}
	fmt.Println("bench,llc_mb,store_kb,degree,replacement,speedup,coverage,accuracy,traffic_overhead_pct")
	for li, llcMB := range llcList {
		base, berr := baseFs[li].Result()
		if berr != nil {
			cellFail(berr)
		}
		for si, sizeKB := range sizeList {
			for di, d := range degreeList {
				for ri, repl := range replList {
					res, err := cellFs[[4]int{li, si, di, ri}].Result()
					if err != nil {
						cellFail(err)
					}
					if berr != nil || err != nil {
						fmt.Printf("%s,%d,%d,%d,%s,ERROR,ERROR,ERROR,ERROR\n",
							*bench, llcMB, sizeKB, d, strings.TrimSpace(repl))
						continue
					}
					fmt.Printf("%s,%d,%d,%d,%s,%.4f,%.4f,%.4f,%.1f\n",
						*bench, llcMB, sizeKB, d, strings.TrimSpace(repl),
						res.SpeedupOver(base), res.CoverageOver(base),
						res.Accuracy(), res.TrafficOverheadPct(base))
				}
			}
		}
	}
	if ck != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %d cells restored, %d simulated\n",
			restored, cellCount-restored)
		if err := ck.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: checkpoint: %v\n", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}
