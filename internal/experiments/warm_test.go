package experiments

import (
	"bytes"
	"fmt"
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
// a single-core and a 4-core machine. In the third case the snapshot
// holds a Triage-Dynamic store the sizer has not provisioned yet (so
// it has no arrays), and the restored run provisions it during the
// measurement window.
func TestWarmReuseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	wc := sim.GlobalWarmCache()
	t.Cleanup(wc.Reset)
	run := func(s RunSpec) ([]byte, []byte, sim.Result) {
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
		return EncodeResult(res), series.Bytes(), res
	}
	for _, tc := range []struct {
		cores                   int
		warmup, measure, longer uint64
		provisions              bool // the store is first provisioned after the restore
	}{
		{1, 60_000, 40_000, 70_000, false},
		{4, 60_000, 40_000, 70_000, false},
		{1, 150_000, 40_000, 200_000, true},
	} {
		parent := RunSpec{Bench: "mcf", PF: "triage-dyn", Cores: tc.cores, Warmup: tc.warmup, Measure: tc.measure, Seed: 7}
		child := parent
		child.Measure = tc.longer
		name := fmt.Sprintf("%d cores, %d warmup", tc.cores, tc.warmup)

		wc.Reset()
		_, _, pres := run(parent)
		if hits, _, stores := wc.Stats(); hits != 0 || stores != 1 {
			t.Fatalf("%s: cold parent restored %d and stored %d snapshots, want 0 and 1", name, hits, stores)
		}
		warm, warmSeries, wres := run(child)
		if hits, _, _ := wc.Stats(); hits != 1 {
			t.Fatalf("%s: child restored %d snapshots, want 1", name, hits)
		}
		if tc.provisions {
			if ways := pres.Cores[0].AvgMetadataWays; ways != 0 {
				t.Fatalf("%s: the store held %.3f ways right after warmup, want an unprovisioned snapshot", name, ways)
			}
			if ways := wres.Cores[0].AvgMetadataWays; ways == 0 {
				t.Fatalf("%s: the restored run never provisioned the store", name)
			}
		}

		wc.Reset()
		cold, coldSeries, _ := run(child)
		if hits, _, _ := wc.Stats(); hits != 0 {
			t.Fatalf("%s: cold child restored %d snapshots from an empty cache", name, hits)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: warm-restored result differs from cold warmup:\n--- cold ---\n%s\n--- warm ---\n%s", name, cold, warm)
		}
		if len(coldSeries) == 0 || !bytes.Equal(coldSeries, warmSeries) {
			t.Errorf("%s: sampled series differ between cold and warm runs:\n--- cold ---\n%s\n--- warm ---\n%s", name, coldSeries, warmSeries)
		}
	}
}

// TestUnprovisionedSnapshotCostsLittle pins that a Triage-Dynamic
// store the sizer has not provisioned holds no host arrays: its
// single-core warm snapshot is within 0.5 MiB of the no-prefetcher
// snapshot of the same warm prefix.
func TestUnprovisionedSnapshotCostsLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	wc := sim.GlobalWarmCache()
	t.Cleanup(wc.Reset)
	held := map[string]int64{}
	for _, pf := range []string{"none", "triage-dyn"} {
		wc.Reset()
		res, err := RunSpec{Bench: "mcf", PF: pf, Warmup: 150_000, Measure: 40_000, Seed: 7}.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ways := res.Cores[0].AvgMetadataWays; ways != 0 {
			t.Fatalf("%s: the store held %.3f ways right after warmup, want none", pf, ways)
		}
		if _, _, stores := wc.Stats(); stores != 1 {
			t.Fatalf("%s: stored %d snapshots, want 1", pf, stores)
		}
		held[pf] = wc.HeldBytes()
	}
	if extra := held["triage-dyn"] - held["none"]; extra > 512<<10 {
		t.Errorf("unprovisioned Triage-Dynamic snapshot is %d bytes (%.2f MiB) over the no-prefetcher one, want at most 0.5 MiB",
			extra, float64(extra)/(1<<20))
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
