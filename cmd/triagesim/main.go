// Command triagesim runs one benchmark under one prefetcher
// configuration and prints detailed statistics — the workhorse for
// exploring the simulator outside the canned experiments.
//
// Usage:
//
//	triagesim -bench mcf -pf triage-dyn [-cores 1] [-warmup N] [-measure N] [-degree D]
//	triagesim -corpus traces/ -trace sha256:<hex> -pf triage-dyn ...  # replay a materialized trace
//
// Prefetchers: none, stride-only, nextline, ghb, markov, bo, sms,
// stms, domino, isb, misb, triage-512k, triage-1m, triage-dyn,
// triage-dynutil, triage-unlimited, and '+'-joined hybrids such as
// triage+bo. Use -list to see benchmarks.
//
// The run itself is an experiments.RunSpec — the same job spec the
// triaged service executes — so `triagesim -json PATH` writes the
// result in the service's exact encoding and the two paths can be
// compared byte for byte.
//
// Telemetry: -sample N records a counter snapshot every N retired
// instructions and writes the series to -sampleout (JSONL, or CSV when
// the path ends in .csv); -events PATH writes the last -eventcap
// prefetch-lifecycle events as JSONL; -cpuprofile/-memprofile write
// pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "mcf", "benchmark name")
		pfName  = flag.String("pf", "none", "prefetcher configuration")
		cores   = flag.Int("cores", 1, "number of cores (rate mode: N copies)")
		warmup  = flag.Uint64("warmup", 3_000_000, "warmup instructions per core")
		measure = flag.Uint64("measure", 2_000_000, "measured instructions per core")
		degree  = flag.Int("degree", 1, "prefetch degree")
		seed    = flag.Uint64("seed", 42, "workload seed")
		traceID = flag.String("trace", "", "replay this corpus trace (sha256:<hex>) instead of the -bench generator; requires -corpus")
		mix     = flag.String("mix", "", "comma-separated per-core workload mix; entries are bench names or sha256:<hex> corpus traces (overrides -bench/-trace/-cores)")
		corpus  = flag.String("corpus", "", "content-addressed trace corpus directory (see tracegen -corpus)")
		list    = flag.Bool("list", false, "list benchmarks and exit")

		check = flag.Uint64("check", 0, "assert simulator structural invariants every N instructions (debug mode, 0 = off)")

		sample    = flag.Uint64("sample", 0, "snapshot counters every N retired instructions (0 = off)")
		sampleOut = flag.String("sampleout", "samples.jsonl", "time-series output path (.csv selects CSV, else JSONL)")
		eventsOut = flag.String("events", "", "write prefetch-lifecycle event trace (JSONL) to this path")
		eventCap  = flag.Int("eventcap", 1<<16, "event ring capacity (keeps the last N events)")
		jsonOut   = flag.String("json", "", "also write the result as JSON to this path (the service wire encoding; byte-comparable with triagectl output)")
	)
	wd := cliutil.AddWatchdog(flag.CommandLine)
	prof := cliutil.AddProfile(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}
	if *corpus != "" {
		if err := experiments.SetTraceCorpus(*corpus); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	rs := experiments.RunSpec{
		Bench:       *bench,
		PF:          *pfName,
		Cores:       *cores,
		Warmup:      *warmup,
		Measure:     *measure,
		Seed:        *seed,
		Degree:      *degree,
		Trace:       *traceID,
		SampleEvery: *sample,
		CheckEvery:  *check,
	}
	if *mix != "" {
		for _, e := range strings.Split(*mix, ",") {
			if e = strings.TrimSpace(e); e != "" {
				rs.Mix = append(rs.Mix, e)
			}
		}
		// The mix supplies both the workloads and the core count; the
		// -bench default and -trace must not ride along.
		rs.Bench, rs.Trace = "", ""
	} else if *traceID != "" {
		// -bench is only a display label on a replay; unless the user set
		// it explicitly, let Normalize derive one from the content hash.
		benchSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "bench" {
				benchSet = true
			}
		})
		if !benchSet {
			rs.Bench = ""
		}
	}
	rs.Normalize()
	if err := rs.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -list for benchmarks)\n", err)
		os.Exit(2)
	}
	var hooks *telemetry.Hooks
	if *sample > 0 || *eventsOut != "" {
		hooks = &telemetry.Hooks{}
		if *sample > 0 {
			hooks.Sampler = telemetry.NewSampler(*sample)
		}
		if *eventsOut != "" {
			hooks.Events = telemetry.NewEventTrace(*eventCap)
		}
	}
	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The spec runs as service.Execute runs a single job: on a pool,
	// under the -deadline/-stall watchdog Guarded arms, with a panic or
	// abort returned as a RunError naming the spec's key.
	res, rerr := experiments.Go(experiments.NewPool(1), func() sim.Result {
		return experiments.Guarded(rs.Key(), *wd.Deadline, *wd.Stall, func() *telemetry.Hooks { return hooks }, func(h *telemetry.Hooks) sim.Result {
			res, err := rs.Run(h)
			if err != nil {
				panic(err)
			}
			return res
		})
	}).Result()
	if rerr != nil {
		fmt.Fprintln(os.Stderr, rerr)
		os.Exit(1)
	}
	stopProf()
	if hooks != nil {
		if err := writeTelemetry(hooks, *sampleOut, *eventsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, experiments.EncodeResult(res), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("benchmark    : %s (x%d cores)\n", rs.Bench, rs.Cores)
	fmt.Printf("prefetcher   : %s (degree %d)\n", rs.PF, rs.Degree)
	for c, cr := range res.Cores {
		fmt.Printf("core %-2d      : IPC %.4f  (%d instr, %d cycles, %d loads, %d L2 misses, %.2f meta ways)\n",
			c, cr.IPC(), cr.Instructions, cr.Cycles, cr.Loads, cr.L2DemandMisses, cr.AvgMetadataWays)
		fmt.Printf("  avg load lat: %.1f cycles\n", cr.AvgLoadCycles)
	}
	fmt.Printf("mean IPC     : %.4f\n", res.IPC())
	fmt.Printf("accuracy     : %.1f%%\n", res.Accuracy()*100)
	fmt.Printf("prefetches   : issued %d, useful %d, redundant-dropped %d\n",
		res.PrefetchesIssued, res.PrefetchesUseful, res.PrefetchesRedundant)
	d := res.DRAM
	fmt.Printf("DRAM         : demand %d, prefetch %d, writeback %d, metadata r/w %d/%d (total %d lines, %.1f MB)\n",
		d.Transfers[dram.DemandRead], d.Transfers[dram.PrefetchRead], d.Transfers[dram.Writeback],
		d.Transfers[dram.MetadataRead], d.Transfers[dram.MetadataWrite],
		d.Total(), float64(d.Bytes())/(1<<20))
	fmt.Printf("LLC          : %d/%d hits (data ways end state reflect partition)\n", res.LLC.Hits, res.LLC.Accesses)
	fmt.Printf("meta accesses: triage-LLC %d, misb-offchip %d\n",
		res.TriageLLCMetadataAccesses, res.MISBOffChipMetadataAccesses)
	if hooks != nil && hooks.Sampler != nil {
		fmt.Printf("telemetry    : %d samples -> %s\n", len(hooks.Sampler.Samples()), *sampleOut)
	}
	if hooks != nil && hooks.Events != nil {
		fmt.Printf("events       : %d total (last %d kept) -> %s\n",
			hooks.Events.Total(), len(hooks.Events.Events()), *eventsOut)
	}
}

// writeTelemetry flushes the sampled series and event trace to disk.
func writeTelemetry(hooks *telemetry.Hooks, sampleOut, eventsOut string) error {
	if hooks.Sampler != nil {
		f, err := os.Create(sampleOut)
		if err != nil {
			return err
		}
		if strings.HasSuffix(sampleOut, ".csv") {
			err = hooks.Sampler.WriteCSV(f)
		} else {
			err = hooks.Sampler.WriteJSONL(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if hooks.Events != nil {
		f, err := os.Create(eventsOut)
		if err != nil {
			return err
		}
		err = hooks.Events.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
