package experiments

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestWarmReuseByteIdentical checks the warm-snapshot acceptance
// criterion where snapshots are still taken, on RunSpec jobs: a spec
// sharing an earlier spec's warm prefix (same bench, prefetcher, seed
// and warmup; a longer measurement window) must restore the earlier
// spec's post-warmup state, and its encoded result and sampled series
// must be byte-identical to a run that simulated the warmup cold — on
// a single-core and a 4-core machine.
func TestWarmReuseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	wc := sim.GlobalWarmCache()
	t.Cleanup(wc.Reset)
	run := func(s RunSpec) ([]byte, []byte) {
		t.Helper()
		hooks := &telemetry.Hooks{Sampler: telemetry.NewSampler(10_000)}
		res, err := s.Run(hooks)
		if err != nil {
			t.Fatal(err)
		}
		var series bytes.Buffer
		if err := hooks.Sampler.WriteJSONL(&series); err != nil {
			t.Fatal(err)
		}
		return EncodeResult(res), series.Bytes()
	}
	for _, cores := range []int{1, 4} {
		parent := RunSpec{Bench: "mcf", PF: "triage-dyn", Cores: cores, Warmup: 60_000, Measure: 40_000, Seed: 7}
		child := parent
		child.Measure = 70_000

		wc.Reset()
		run(parent)
		if hits, _, stores := wc.Stats(); hits != 0 || stores != 1 {
			t.Fatalf("%d cores: cold parent restored %d and stored %d snapshots, want 0 and 1", cores, hits, stores)
		}
		warm, warmSeries := run(child)
		if hits, _, _ := wc.Stats(); hits != 1 {
			t.Fatalf("%d cores: child restored %d snapshots, want 1", cores, hits)
		}

		wc.Reset()
		cold, coldSeries := run(child)
		if hits, _, _ := wc.Stats(); hits != 0 {
			t.Fatalf("%d cores: cold child restored %d snapshots from an empty cache", cores, hits)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%d cores: warm-restored result differs from cold warmup:\n--- cold ---\n%s\n--- warm ---\n%s", cores, cold, warm)
		}
		if len(coldSeries) == 0 || !bytes.Equal(coldSeries, warmSeries) {
			t.Errorf("%d cores: sampled series differ between cold and warm runs:\n--- cold ---\n%s\n--- warm ---\n%s", cores, coldSeries, warmSeries)
		}
	}
}

// TestFiguresStoreNoWarmSnapshots pins that figure cells no longer
// snapshot their warm state: the pool memo serves whole duplicate
// cells, so a stored snapshot would never be restored.
func TestFiguresStoreNoWarmSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	wc := sim.GlobalWarmCache()
	wc.Reset()
	t.Cleanup(wc.Reset)
	e05, _ := ByID("fig05")
	e17, _ := ByID("fig17")
	for _, tab := range RunAll(NewRunnerPool(tinyParams(), NewPool(2)), []Experiment{e05, e17}) {
		if tab.Failed {
			t.Fatalf("%s failed", tab.ID)
		}
	}
	if hits, misses, stores := wc.Stats(); hits+misses+stores != 0 {
		t.Errorf("figures touched the warm cache: %d restores, %d misses, %d stores", hits, misses, stores)
	}
}
