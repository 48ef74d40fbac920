package experiments

import (
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// TestMutatedCellBuildsOnce checks that a changed-machine cell builds
// its reader and its prefetcher once, for the changed machine.
func TestMutatedCellBuildsOnce(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	builds := 0
	cfg := namedPF{"Triage_512KB", func(m config.Machine) prefetch.Prefetcher {
		builds++
		if m.LLCExtraLatency != 7 {
			t.Errorf("prefetcher built for LLCExtraLatency %d, want the changed 7", m.LLCExtraLatency)
		}
		return pfTriageStatic(512 << 10)(m)
	}}
	p := tinyParams()
	p.Warmup, p.Measure = 2000, 2000
	r := NewRunnerPool(p, NewPool(1))
	if _, err := r.changedF(spec, cfg, machineChange{ExtraLatency: 7}).Result(); err != nil {
		t.Fatal(err)
	}
	hits, built, _ := r.GraphStats()
	if builds != 1 || hits+built != 1 {
		t.Fatalf("one changed cell built %d prefetchers and %d chase readers, want 1 and 1", builds, hits+built)
	}
	if r.used["mcf/lat+7/Triage_512KB"] == nil {
		t.Errorf("the cell is not keyed mcf/lat+7/Triage_512KB: %v", r.used)
	}
}

// TestMachineChangeKeys pins how a machine change names a single-core
// cell: Table 1's machine keeps the "bench/config" key existing resume
// stores hold, and every field, alone or paired with another, names a
// cell of its own.
func TestMachineChangeKeys(t *testing.T) {
	if got := (machineChange{}).cellKey("mcf", "BO"); got != "mcf/BO" {
		t.Errorf("Table 1's machine keys the cell %q, want mcf/BO", got)
	}
	table1 := machineChange{LLCBytes: config.Default(1).LLCBytesPerCore}
	if got := table1.cellKey("mcf", "BO"); got != "mcf/BO" {
		t.Errorf("an LLC of Table 1's size keys the cell %q, want mcf/BO", got)
	}
	if got, want := (machineChange{LLCBytes: 1 << 20, FreeStore: true}).cellKey("mcf", "NoL2PF"), "mcf/llc1024KB/freestore/NoL2PF"; got != want {
		t.Errorf("key %q, want %q", got, want)
	}
	fields := []func(*machineChange){
		func(ch *machineChange) { ch.LLCBytes = 1 << 20 },
		func(ch *machineChange) { ch.ExtraLatency = 2 },
		func(ch *machineChange) { ch.LLCPolicy = "hawkeye" },
		func(ch *machineChange) { ch.FreeStore = true },
	}
	seen := map[string]machineChange{"mcf/BO": {}}
	add := func(ch machineChange) {
		key := ch.cellKey("mcf", "BO")
		if prev, dup := seen[key]; dup {
			t.Errorf("changes %+v and %+v share the key %q", prev, ch, key)
		}
		seen[key] = ch
	}
	for i, set := range fields {
		var ch machineChange
		set(&ch)
		add(ch)
		for _, also := range fields[i+1:] {
			pair := ch
			also(&pair)
			add(pair)
		}
	}
	if len(seen) != 1+4+6 {
		t.Errorf("%d distinct keys, want 11", len(seen))
	}
}

// TestGraphCountsRepeat runs the figures perfbench's figures workload
// runs, with its seed and mix count, on a one-worker pool twice. Cells
// start in the same order every time there, so the graph cache's counts
// repeat exactly, at the 184 hits and 122 builds a replay of that order
// through an 8 MiB LRU gives (EXPERIMENTS.md, "Graph cache"); every chase
// reader the cells build is either a hit or a build. The windows are
// tiny because they do not change which readers are built: fig05, fig09
// and fig11 build 126 single-core readers, and fig17 180 (two mixes at
// 2, 4, 8 and 16 cores, each run without a prefetcher, with MISB and
// with Triage-Dynamic).
func TestGraphCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	p := Params{Warmup: 1000, Measure: 1000, MultiWarmup: 1000, MultiMeasure: 1000, Mixes: 2, Seed: 2}
	var es []Experiment
	for _, id := range []string{"fig05", "fig09", "fig11", "fig17"} {
		e, _ := ByID(id)
		es = append(es, e)
	}
	type counts struct {
		hits, built uint64
		held        int64
	}
	var runs []counts
	for i := 0; i < 2; i++ {
		r := NewRunnerPool(p, NewPool(1))
		if AnyFailed(RunAll(r, es)) {
			t.Fatal("a figure failed")
		}
		var c counts
		c.hits, c.built, c.held = r.GraphStats()
		if c.hits+c.built != 306 || c.held > workload.GraphCacheBytes {
			t.Fatalf("run %d: %d hits + %d built, %d bytes held; want 306 readers and at most %d bytes",
				i, c.hits, c.built, c.held, workload.GraphCacheBytes)
		}
		if c.hits != 184 || c.built != 122 {
			t.Errorf("run %d: %d hits, %d built; the one-worker order gives 184 and 122", i, c.hits, c.built)
		}
		runs = append(runs, c)
	}
	if runs[0] != runs[1] {
		t.Fatalf("graph counts differ between runs: %+v, then %+v", runs[0], runs[1])
	}
}
