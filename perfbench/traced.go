package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sim"
)

// jsonLayers are the layers whose CPU goes into the traced run's JSON
// line: those that run on every workload. The service, transport and
// cluster layers (zero on figures) are printed in the report only.
var jsonLayers = []string{
	"sim", "cache", "replacement", "core", "dram", "flat",
	"prefetch", "workload", "runtime",
}

// reportLayers are printed alongside them. The experiments package
// (runner, tables, job specs) rarely draws a sample.
var reportLayers = []string{"experiments", "service", "http", "json", "vfs", "cluster", "telemetry"}

// addLayerCPU charges the measured process CPU to layers in proportion
// to their share of the profile's samples. The kernel's CPU accounting
// is exact where sample counts are coarse (10 ms each); the profile
// supplies the split.
func addLayerCPU(b *bench, fold Fold, cpu float64, note string) {
	for _, l := range jsonLayers {
		b.add(l+".cpu_s", "s", fold.share(l)*cpu, note)
	}
	b.add("layers.unmapped_frac", "frac", fold.unmappedFrac(), "profiled CPU no layer rule covers")
	for _, l := range reportLayers {
		b.logf("layer %-34s %14.6g s      %s", l+".cpu_s", fold.share(l)*cpu, note)
	}
	b.logf("layer coverage %.2f%% of %.0f ms profiled; heaviest unmapped: %s",
		100*(1-fold.unmappedFrac()), fold.TotalMS, fold.topUnmapped(5))
	if fold.unmappedFrac() > 0.10 {
		b.problem("layer map covers only %.1f%% of profiled CPU (needs 90%%)", 100*(1-fold.unmappedFrac()))
	}
}

// cellTotals sums the simulator's work over completed simulations.
type cellTotals struct {
	cells                               int
	stepped, measured, sustain, restore uint64 // instructions
	issued, useful                      uint64 // L2 prefetches
}

// addCell accounts one simulation. warm is the warmup window per core;
// restored says a warm snapshot replaced the warmup, which the result's
// step count still includes.
func (c *cellTotals) addCell(res sim.Result, warm uint64, restored bool) {
	var measured uint64
	for _, cr := range res.Cores {
		measured += cr.Instructions
	}
	warmSteps := uint64(len(res.Cores)) * warm
	c.cells++
	c.measured += measured
	c.issued += res.PrefetchesIssued
	c.useful += res.PrefetchesUseful
	if res.SimulatedInstructions > warmSteps+measured {
		c.sustain += res.SimulatedInstructions - warmSteps - measured
	}
	stepped := res.SimulatedInstructions
	if restored && stepped > warmSteps {
		stepped -= warmSteps
		c.restore += warmSteps
	}
	c.stepped += stepped
}

// addSimCounts adds the work counts; cpu is the CPU of the processes
// that stepped allStepped instructions, which is c.stepped unless the
// counts cover only some of the simulations.
func addSimCounts(b *bench, c cellTotals, cpu, allStepped float64) {
	b.add("sim.cells", "count", float64(c.cells), "simulations completed")
	b.add("sim.stepped_minstr", "Minstr", float64(c.stepped)/1e6, "instructions stepped (restored warmups excluded)")
	b.add("sim.measured_minstr", "Minstr", float64(c.measured)/1e6, "instructions in measurement windows")
	b.add("sim.sustain_minstr", "Minstr", float64(c.sustain)/1e6, "instructions stepped past each core's target")
	nsPer := 0.0
	if allStepped > 0 {
		nsPer = cpu * 1e9 / allStepped
	}
	b.add("sim.ns_per_instr", "ns", nsPer, "process CPU per stepped instruction")
	frac := 0.0
	if c.issued > 0 {
		frac = float64(c.useful) / float64(c.issued)
	}
	b.add("prefetch.useful_frac", "frac", frac, fmt.Sprintf("%d useful of %d issued", c.useful, c.issued))
	b.logf("layer sim.restored_minstr %20.6g Minstr warmup restored from snapshots, not stepped", float64(c.restore)/1e6)
}

// readCheckpointCells reads the cells an experiments -resume directory
// stored. Within one process every cell has its own warm prefix (the
// runner's single-flight cache already merges identical cells), so no
// warmup was restored.
func readCheckpointCells(dir string) (cellTotals, error) {
	var c cellTotals
	f, err := os.Open(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		return c, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // header: format version and config fingerprint
		}
		// Each record is "<crc32c hex> <json>".
		_, payload, ok := strings.Cut(sc.Text(), " ")
		var rec struct {
			Result sim.Result `json:"result"`
			IsBlob bool       `json:"is_blob"`
		}
		if !ok || json.Unmarshal([]byte(payload), &rec) != nil {
			return c, fmt.Errorf("%s: unreadable checkpoint record", dir)
		}
		if rec.IsBlob {
			continue
		}
		var warm uint64 = figWarmup
		if len(rec.Result.Cores) > 1 {
			warm = figMultiWarmup
		}
		c.addCell(rec.Result, warm, false)
	}
	return c, sc.Err()
}
