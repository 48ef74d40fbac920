// Command sweep explores the design space beyond the paper's fixed
// points: metadata store size x prefetch degree x LLC capacity x
// replacement policy, on any benchmark, emitting CSV for plotting.
//
// Usage:
//
//	sweep -bench mcf -sizes 128,256,512,1024 -degrees 1,2,4 [-llc 1,2,4] [-repl lru,hawkeye] [-j N]
//
// Each configuration is simulated against its own no-prefetch baseline
// at the same LLC size, so the speedup isolates the prefetcher. Every
// point is a figure-engine cell (experiments.Runner.SingleCell) on a
// pool of -j workers; rows still print in sweep order, so the CSV is
// byte-identical for any -j.
//
// -resume DIR persists completed cells; an interrupted sweep rerun
// with the same flags simulates only the missing ones and emits
// identical CSV, and a rerun of a finished sweep simulates nothing.
// -deadline/-stall abort stuck cells (rendered as ERROR rows, exit
// nonzero); -check N asserts simulator invariants every N
// instructions (see EXPERIMENTS.md "Fault tolerance").
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

// parseSizes parses the -sizes list: each store size in KB must be a
// positive multiple of one store way (8 KB), the only sizes Triage's
// 2048-set, 4-byte-entry store can take.
func parseSizes(s string) ([]int, error) {
	sizes, err := parseInts(s)
	if err != nil {
		return nil, err
	}
	for _, kb := range sizes {
		if kb <= 0 || kb<<10%core.StoreWayBytes != 0 {
			return nil, fmt.Errorf("store size %d KB is not a positive multiple of %d KB", kb, core.StoreWayBytes>>10)
		}
	}
	return sizes, nil
}

// parseRepls parses the -repl list of metadata replacement policies.
func parseRepls(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		switch r := strings.TrimSpace(part); r {
		case "lru", "hawkeye":
			out = append(out, r)
		default:
			return nil, fmt.Errorf("unknown replacement policy %q (want lru or hawkeye)", r)
		}
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
	sizeList, err := parseSizes(*sizes)
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

	replList, err := parseRepls(*repls)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The window and seed are Params, so they stamp the checkpoint; the
	// LLC size, store size, degree and policy name each cell.
	p := experiments.Params{
		Warmup: *warmup, Measure: *measure, Seed: *seed,
		Deadline: *wd.Deadline, StallTimeout: *wd.Stall, CheckEvery: *check,
	}
	var ck *experiments.Checkpoint
	if *resume != "" {
		// The store is stamped with the Params' fingerprint, so resuming
		// with different -warmup/-measure/-seed is refused, not silently
		// mixed.
		ck, err = experiments.OpenCheckpoint(*resume, p.Fingerprint(config.Default(1)))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Every cell counts as one progress unit, plus the per-LLC baselines:
	// the cell count is known up front, so the ETA is exact in cells.
	pool := experiments.NewPool(*jobs)
	var prog *telemetry.PoolProgress
	if *progress {
		prog = telemetry.NewPoolProgress(len(llcList) * (1 + len(sizeList)*len(degreeList)*len(replList)))
		pool.SetProgress(prog)
		stop := telemetry.StartPrinter(os.Stderr, prog, 2*time.Second)
		defer stop()
	}
	runner := experiments.NewRunnerPool(p, pool)
	runner.SetCheckpoint(ck)

	// Launch every point on the pool, then collect in sweep order so the
	// CSV is identical regardless of -j.
	type point struct {
		sizeKB, degree int
		repl           string
		f              *experiments.Future[sim.Result]
	}
	noPF := func(config.Machine) prefetch.Prefetcher { return nil }
	llcTicks := uint64(config.Default(1).LLCLatency) * dram.TicksPerCycle
	bases := make([]*experiments.Future[sim.Result], len(llcList))
	points := make([][]point, len(llcList))
	for li, llcMB := range llcList {
		bases[li] = runner.SingleCell(spec, "NoL2PF", llcMB<<20, noPF)
		for _, sizeKB := range sizeList {
			for _, d := range degreeList {
				for _, repl := range replList {
					tc := core.Config{Mode: core.Static, StaticBytes: sizeKB << 10, Degree: d, LLCLatencyTicks: llcTicks}
					if repl == "lru" {
						tc.Replacement = core.LRU
					}
					name := fmt.Sprintf("Triage_%dKB_d%d_%s", sizeKB, d, repl)
					f := runner.SingleCell(spec, name, llcMB<<20, func(config.Machine) prefetch.Prefetcher {
						return core.New(tc)
					})
					points[li] = append(points[li], point{sizeKB, d, repl, f})
				}
			}
		}
	}

	failed := false
	collect := func(f *experiments.Future[sim.Result]) (sim.Result, bool) {
		res, err := f.Result()
		if prog != nil {
			prog.UnitDone()
		}
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			if len(err.Stack) > 0 {
				os.Stderr.Write(err.Stack)
			}
		}
		return res, err == nil
	}
	fmt.Println("bench,llc_mb,store_kb,degree,replacement,speedup,coverage,accuracy,traffic_overhead_pct")
	for li, llcMB := range llcList {
		base, baseOK := collect(bases[li])
		for _, pt := range points[li] {
			res, ok := collect(pt.f)
			if !baseOK || !ok {
				fmt.Printf("%s,%d,%d,%d,%s,ERROR,ERROR,ERROR,ERROR\n",
					*bench, llcMB, pt.sizeKB, pt.degree, pt.repl)
				continue
			}
			fmt.Printf("%s,%d,%d,%d,%s,%.4f,%.4f,%.4f,%.1f\n",
				*bench, llcMB, pt.sizeKB, pt.degree, pt.repl,
				res.SpeedupOver(base), res.CoverageOver(base),
				res.Accuracy(), res.TrafficOverheadPct(base))
		}
	}
	if ck != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %d cells restored, %d simulated\n",
			runner.Restored(), runner.Runs())
		if err := ck.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: checkpoint: %v\n", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}
