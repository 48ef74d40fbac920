// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-fig fig05,fig11] [-full] [-j N] [-mixes N] [-measure N] [-warmup N] [-seed N]
//
// Without -fig it runs every experiment in paper order. -full switches
// to the larger paper-scale windows (slower). -j sets how many
// simulations run concurrently (default: GOMAXPROCS); tables and CSVs
// are byte-identical for every -j. Results print as aligned text
// tables with shape notes; EXPERIMENTS.md records paper-vs-measured
// values for a committed run. The repository's benchmark times this
// command end to end: `bash perfbench/bench.sh --workload figures`
// (see perfbench/README.md).
//
// Introspection: -progress prints a live status line (runs, Minstr/s,
// busy workers, ETA) to stderr; -cpuprofile/-memprofile write pprof
// profiles.
//
// Fault tolerance: -resume DIR checkpoints completed runs and restarts
// only the missing ones after an interruption (output byte-identical);
// -deadline/-stall abort stuck runs; a panicking or aborted cell
// degrades into an error row/table while siblings complete, and the
// process exits nonzero. -check N asserts simulator structural
// invariants every N instructions. See EXPERIMENTS.md "Fault
// tolerance".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated experiment ids, or 'all' (known: "+strings.Join(experiments.IDs(), ",")+")")
		full     = flag.Bool("full", false, "paper-scale instruction windows (slower)")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max simulations running concurrently (output is identical for any value)")
		mixes    = flag.Int("mixes", 0, "override number of multi-programmed mixes")
		warmup   = flag.Uint64("warmup", 0, "override single-core warmup instructions")
		measure  = flag.Uint64("measure", 0, "override single-core measured instructions")
		mwarmup  = flag.Uint64("mwarmup", 0, "override multi-core warmup instructions")
		mmeasure = flag.Uint64("mmeasure", 0, "override multi-core measured instructions")
		seed     = flag.Uint64("seed", 0, "override workload seed")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")

		resume = flag.String("resume", "", "checkpoint directory: completed runs persist here and an interrupted invocation restarts only the missing cells")
		check  = flag.Uint64("check", 0, "assert simulator structural invariants every N instructions (debug mode, 0 = off)")

		progress = flag.Bool("progress", false, "print a live progress line to stderr")
	)
	wd := cliutil.AddWatchdog(flag.CommandLine)
	prof := cliutil.AddProfile(flag.CommandLine)
	flag.Parse()

	p := experiments.DefaultParams()
	if *full {
		p = experiments.FullParams()
	}
	if *mixes > 0 {
		p.Mixes = *mixes
	}
	if *warmup > 0 {
		p.Warmup = *warmup
	}
	if *measure > 0 {
		p.Measure = *measure
	}
	if *mwarmup > 0 {
		p.MultiWarmup = *mwarmup
	}
	if *mmeasure > 0 {
		p.MultiMeasure = *mmeasure
	}
	if *seed > 0 {
		p.Seed = *seed
	}
	p.Deadline = *wd.Deadline
	p.StallTimeout = *wd.Stall
	p.CheckEvery = *check

	var selected []experiments.Experiment
	if *figs == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*figs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(experiments.IDs(), ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	pool := experiments.NewPool(*jobs)
	start := time.Now()

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()
	if *progress {
		prog := telemetry.NewPoolProgress(len(selected))
		pool.SetProgress(prog)
		stop := telemetry.StartPrinter(os.Stderr, prog, 2*time.Second)
		defer stop()
	}

	var ck *experiments.Checkpoint
	if *resume != "" {
		// The checkpoint is stamped with the parameter fingerprint, so a
		// directory written under different scale flags (or a different
		// machine config) is refused instead of silently served.
		var err error
		ck, err = experiments.OpenCheckpoint(*resume, p.Fingerprint(config.Default(1)))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("running %d experiments on %d workers...\n", len(selected), pool.Workers())
	// All experiments share one runner: the pool's single-flight memo
	// simulates each cell exactly once even when figures race to it,
	// and the launch/collect figure structure keeps tables
	// deterministic. The runner hashes the Params for its memo
	// namespace, so it is built after the start-up banner.
	runner := experiments.NewRunnerPool(p, pool)
	runner.SetCheckpoint(ck)
	tables := experiments.RunAll(runner, selected)
	for i, e := range selected {
		tables[i].Fprint(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, tables[i]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("total: %.1fs (%d simulations, %.2fM sim-instr/s)\n",
		time.Since(start).Seconds(), runner.Runs(),
		float64(runner.SimulatedInstructions())/time.Since(start).Seconds()/1e6)
	// Diagnostics go to stderr so stdout stays byte-identical between
	// fresh and resumed invocations.
	if ck != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %d cells restored, %d simulated\n",
			runner.Restored(), runner.Runs())
		if err := ck.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: checkpoint: %v\n", err)
		}
	}
	printCaches(pool, runner)
	if experiments.AnyFailed(tables) {
		fmt.Fprintln(os.Stderr, "one or more experiments failed (see error rows above)")
		os.Exit(1)
	}
}

// printCaches reports the process's figure caches on stderr: the pool
// memo, which serves duplicate figure cells whole, and the runner's
// graph cache, which shares shuffled chase graphs between cells.
func printCaches(pool *experiments.Pool, runner *experiments.Runner) {
	hits, simulated := pool.MemoStats()
	gHits, gBuilt, gHeld := runner.GraphStats()
	fmt.Fprintf(os.Stderr, "caches: memo %d hits, %d simulated; graphs %d hits, %d built, %.1f MB held\n",
		hits, simulated, gHits, gBuilt, float64(gHeld)/1e6)
}

func writeCSV(dir, id string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
