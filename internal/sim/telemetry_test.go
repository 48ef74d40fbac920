package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func telemetryRun(t *testing.T, hooks *telemetry.Hooks, warm, measure uint64, mode core.Mode) Result {
	t.Helper()
	m, err := New(Options{
		Machine:             config.Default(1),
		Workloads:           []trace.Reader{chase()},
		Prefetchers:         []prefetch.Prefetcher{triage(mode)},
		WarmupInstructions:  warm,
		MeasureInstructions: measure,
		Telemetry:           hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestTelemetryDoesNotChangeResults: attaching every hook must be a
// pure observation — the Result is bit-identical to a bare run.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	bare := telemetryRun(t, nil, 400_000, 400_000, core.Dynamic)
	hooks := &telemetry.Hooks{
		Sampler:  telemetry.NewSampler(100_000),
		Events:   telemetry.NewEventTrace(1 << 12),
		Progress: telemetry.NewPoolProgress(0),
	}
	observed := telemetryRun(t, hooks, 400_000, 400_000, core.Dynamic)
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("telemetry perturbed the simulation:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
	if len(hooks.Sampler.Samples()) == 0 {
		t.Error("sampler recorded nothing")
	}
	if hooks.Events.Total() == 0 {
		t.Error("event trace recorded nothing")
	}
}

// TestSampledSeriesDeterministic pins the acceptance criterion: two
// identical runs emit byte-identical JSONL, and the series includes
// the per-interval Triage metadata way allocation.
func TestSampledSeriesDeterministic(t *testing.T) {
	series := func() (*telemetry.Sampler, []byte) {
		s := telemetry.NewSampler(50_000)
		telemetryRun(t, &telemetry.Hooks{Sampler: s}, 300_000, 300_000, core.Static)
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return s, buf.Bytes()
	}
	sa, ja := series()
	_, jb := series()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("sampled JSONL series not deterministic:\n%s\nvs\n%s", ja, jb)
	}
	samples := sa.Samples()
	if len(samples) < 3 {
		t.Fatalf("only %d samples for a 300k-instruction window at 50k interval", len(samples))
	}
	for i, smp := range samples {
		if smp.Interval != i {
			t.Errorf("sample %d has interval %d", i, smp.Interval)
		}
		// Static Triage claims 1MB = 8 of the 16 LLC ways from t=0.
		if got := smp.Cores[0].MetaWays; got != 8 {
			t.Errorf("sample %d MetaWays = %g, want 8 (static 1MB store)", i, got)
		}
		if smp.Cores[0].IPC <= 0 {
			t.Errorf("sample %d has IPC %g", i, smp.Cores[0].IPC)
		}
	}
	// CSV must be deterministic too and carry one row per core.
	var ca bytes.Buffer
	if err := sa.WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if ca.Len() == 0 {
		t.Error("empty CSV")
	}
}

// TestEventTraceCapturesLifecycle checks that a Triage run produces
// the main lifecycle stages plus the partition-resize and predictor
// decision events.
func TestEventTraceCapturesLifecycle(t *testing.T) {
	tr := telemetry.NewEventTrace(1 << 16)
	telemetryRun(t, &telemetry.Hooks{Events: tr}, 1_200_000, 300_000, core.Static)
	seen := map[telemetry.EventKind]int{}
	for _, e := range tr.Events() {
		seen[e.Kind]++
	}
	for _, k := range []telemetry.EventKind{
		telemetry.EvTrained, telemetry.EvIssued, telemetry.EvFilled,
		telemetry.EvUsed, telemetry.EvPredictor,
	} {
		if seen[k] == 0 {
			t.Errorf("no %s events in a trained Triage run (kinds seen: %v)", k, seen)
		}
	}
	// Static Triage resizes the partition 0 -> 8 ways at construction;
	// the ring keeps only the tail, so check the full-run counter via a
	// small fresh trace instead.
	small := telemetry.NewEventTrace(8)
	m, err := New(Options{
		Machine:             config.Default(1),
		Workloads:           []trace.Reader{chase()},
		Prefetchers:         []prefetch.Prefetcher{triage(core.Static)},
		MeasureInstructions: 1,
		Telemetry:           &telemetry.Hooks{Events: small},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	var resized bool
	for _, e := range small.Events() {
		if e.Kind == telemetry.EvPartitionResize {
			resized = true
			if e.A != 0 || e.B != 8 {
				t.Errorf("construction resize = %d -> %d ways, want 0 -> 8", e.A, e.B)
			}
		}
	}
	if !resized {
		t.Error("no partition_resize event at static-Triage construction")
	}
}

// TestProgressSinkSeesEveryInstruction: the chunked live updates plus
// the final flush must account for exactly the simulated instructions.
func TestProgressSinkSeesEveryInstruction(t *testing.T) {
	prog := telemetry.NewPoolProgress(0)
	res := telemetryRun(t, &telemetry.Hooks{Progress: prog}, 150_000, 150_000, core.Static)
	if got := prog.Snapshot().Instructions; got != res.SimulatedInstructions {
		t.Fatalf("progress saw %d instructions, simulator stepped %d", got, res.SimulatedInstructions)
	}
}

// cpuTime returns the CPU time, user plus system, that this process
// has used so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestTelemetryOffOverheadGuard is the <2% regression guard. The seed
// binary is not runnable from here, so the guard bounds the cost from
// above: the telemetry-disabled path differs from the seed hot loop
// only by nil-guard branches, which cost strictly less than the fully
// *enabled* path measured here. If even enabled-vs-disabled is within
// the budget, the disabled-vs-seed regression is too. Runs are timed
// in process CPU time, not wall time: time the scheduler gives to
// other processes on a busy machine is not telemetry overhead.
func TestTelemetryOffOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector inflates instrumented-path timings; guard runs in the plain test pass")
	}
	const (
		warm    = 300_000
		measure = 1_200_000
	)
	run := func(hooks *telemetry.Hooks) time.Duration {
		runtime.GC() // no run collects the garbage of the one before
		start := cpuTime(t)
		telemetryRun(t, hooks, warm, measure, core.Static)
		return cpuTime(t) - start
	}
	mkHooks := func() *telemetry.Hooks {
		return &telemetry.Hooks{
			Sampler:  telemetry.NewSampler(100_000),
			Events:   telemetry.NewEventTrace(1 << 12),
			Progress: telemetry.NewPoolProgress(0),
		}
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	// Allow a few attempts: CI machines still hiccup. Each attempt runs
	// seven back-to-back pairs of the two paths and compares the median
	// pair's difference with the budget. On a shared machine a run's
	// speed swings with the load on the other cores; the two runs of a
	// pair see nearly the same load, so their difference cancels it,
	// and a median does not rest on one lucky or unlucky pair. Pairs
	// alternate which path runs first, so load that rises or falls
	// during an attempt favours neither. The budget is 2% plus a small
	// absolute slack so sub-millisecond jitter can't fail a fast run.
	const slack = 25 * time.Millisecond
	var disabled, overhead time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		var ds, diffs []time.Duration
		for i := 0; i < 7; i++ {
			var d, e time.Duration
			if i%2 == 0 {
				d = run(nil)
				e = run(mkHooks())
			} else {
				e = run(mkHooks())
				d = run(nil)
			}
			ds = append(ds, d)
			diffs = append(diffs, e-d)
		}
		disabled, overhead = median(ds), median(diffs)
		if overhead <= disabled/50+slack {
			return
		}
	}
	t.Errorf("telemetry overhead too high: enabled runs cost %v more than disabled %v (median of 7 pairs; budget 2%% + %v)",
		overhead, disabled, slack)
}
