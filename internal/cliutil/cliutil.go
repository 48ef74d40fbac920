// Package cliutil holds the flag wiring shared by the cmd tools
// (experiments, sweep, triagesim, tracegen, triaged): pprof profiling
// and watchdog deadlines. Before it existed, each tool re-declared the
// same flags with slightly different help text and teardown order;
// registering them here keeps the tools from drifting.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/telemetry"
)

// Profile bundles the -cpuprofile/-memprofile flags.
type Profile struct {
	CPU *string
	Mem *string
}

// AddProfile registers the profiling flags on fs (pass
// flag.CommandLine in a cmd).
func AddProfile(fs *flag.FlagSet) *Profile {
	return &Profile{
		CPU: fs.String("cpuprofile", "", "write a CPU profile to this path"),
		Mem: fs.String("memprofile", "", "write a heap profile to this path"),
	}
}

// Start begins CPU profiling if requested. The returned stop func
// (always non-nil; defer it) ends the CPU profile and writes the heap
// profile if requested, reporting teardown problems to stderr — by
// then the tool's real output is already complete.
func (p *Profile) Start(stderr io.Writer) (stop func(), err error) {
	var stopCPU func()
	if *p.CPU != "" {
		stopCPU, err = telemetry.StartCPUProfile(*p.CPU)
		if err != nil {
			return nil, err
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
		}
		if *p.Mem != "" {
			if err := telemetry.WriteHeapProfile(*p.Mem); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}
	}, nil
}

// Watchdog bundles the -deadline/-stall flags that bound individual
// simulations (see telemetry.StartWatchdog).
type Watchdog struct {
	Deadline *time.Duration
	Stall    *time.Duration
}

// AddWatchdog registers the watchdog flags on fs.
func AddWatchdog(fs *flag.FlagSet) *Watchdog {
	return &Watchdog{
		Deadline: fs.Duration("deadline", 0, "per-run wall-clock deadline (0 = none); an overrunning simulation is aborted and its cell failed"),
		Stall:    fs.Duration("stall", 0, "per-run stall timeout (0 = none); a simulation making no instruction progress for this long is aborted"),
	}
}
