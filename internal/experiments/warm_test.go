package experiments

import (
	"bytes"
	"fmt"
	"sync"
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

// TestWarmContinuationByteIdentical checks that resuming a warm
// snapshot is exact. Each prefix's snapshot is the end of a window-T
// run (the service's single-core 150K+250K, a 4-core 30K+20K); runs of
// windows T, T+1 and T+100K under the same key then restore it, and
// each must encode byte-identically to its cold run and count one
// restore. On four cores the rate-mode copies finish apart, so a core
// is already past T+1 when the last reaches T; that window, like every
// fallback below, must count a miss and still equal its cold run.
func TestWarmContinuationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	wc := sim.GlobalWarmCache()
	t.Cleanup(wc.Reset)
	type child struct {
		spec     RunSpec
		restores bool
	}
	// check runs each child cold into an empty cache, then the parent
	// into an empty cache, then each child after the parent.
	check := func(name string, parent RunSpec, children ...child) {
		t.Helper()
		want := make([][]byte, len(children))
		for i, c := range children {
			wc.Reset()
			want[i] = encodedRun(t, c.spec)
		}
		wc.Reset()
		encodedRun(t, parent)
		for i, c := range children {
			hits0, misses0, _ := wc.Stats()
			got := encodedRun(t, c.spec)
			hits, misses, _ := wc.Stats()
			wantHits := uint64(0)
			if c.restores {
				wantHits = 1
			}
			label := fmt.Sprintf("%s, window %d, sample %d", name, c.spec.Measure, c.spec.SampleEvery)
			if hits-hits0 != wantHits || misses-misses0 != 1-wantHits {
				t.Errorf("%s: %d restores and %d misses, want %d and %d",
					label, hits-hits0, misses-misses0, wantHits, 1-wantHits)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: result differs from its cold run:\n--- cold ---\n%s\n--- keyed ---\n%s", label, want[i], got)
			}
		}
	}
	windows := func(p RunSpec, plusOneRestores bool) []child {
		one, long := p, p
		one.Measure++
		long.Measure += 100_000
		return []child{{p, true}, {one, plusOneRestores}, {long, true}}
	}

	for _, bench := range []string{"mcf", "cassandra"} {
		for _, pf := range []string{"none", "bo", "misb", "triage-dyn", "triage+bo", "triage-1m"} {
			p := RunSpec{Bench: bench, PF: pf, Warmup: 150_000, Measure: 250_000, Seed: 7}
			check(bench+"/"+pf, p, windows(p, true)...)
		}
	}
	for _, pf := range []string{"none", "bo"} {
		p := RunSpec{Bench: "mcf", PF: pf, Cores: 4, Warmup: 30_000, Measure: 20_000, Seed: 7}
		check("4-core "+pf, p, windows(p, false)...)
	}

	// Fallbacks. One core of the mix runs far ahead: it is past 50K when
	// the last core reaches 30K.
	mix := RunSpec{Mix: []string{"mcf", "libquantum", "cassandra", "omnetpp"}, Warmup: 20_000, Measure: 30_000, Seed: 7}
	mixChild := mix
	mixChild.Measure = 50_000
	check("mix", mix, child{mixChild, false})
	p := RunSpec{Bench: "mcf", PF: "triage-dyn", Warmup: 60_000, Measure: 40_000, Seed: 7}
	shorter, sampled, other := p, p, p
	shorter.Measure -= 10_000
	sampled.Measure += 30_000
	sampled.SampleEvery = 10_000
	other.Measure += 30_000
	other.SampleEvery = 7_000
	check("shorter", p, child{shorter, false})
	check("unsampled parent", p, child{sampled, false})
	p.SampleEvery = 10_000
	check("sampled parent", p, child{other, false}, child{sampled, true})
	unsampled := sampled
	unsampled.SampleEvery = 0
	check("sampled parent, unsampled child", p, child{unsampled, true})
}

// TestWarmContinuationConcurrent runs one prefix at several windows in
// parallel on the global cache, first into an empty cache, where the
// runs race to store, and then again over the snapshot that won.
// Whichever run stored it, every result must equal its cold run.
func TestWarmContinuationConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	wc := sim.GlobalWarmCache()
	t.Cleanup(wc.Reset)
	var specs []RunSpec
	var want [][]byte
	for _, m := range []uint64{40_000, 40_001, 55_000, 30_000, 90_000, 40_000} {
		s := RunSpec{Bench: "omnetpp", PF: "triage+bo", Warmup: 60_000, Measure: m, Seed: 3}
		wc.Reset()
		specs = append(specs, s)
		want = append(want, encodedRun(t, s))
	}
	wc.Reset()
	for round := 0; round < 2; round++ {
		hits0, _, _ := wc.Stats()
		got := make([][]byte, len(specs))
		var wg sync.WaitGroup
		for i, s := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.Run(nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = EncodeResult(res)
			}()
		}
		wg.Wait()
		for i := range specs {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("round %d, window %d: concurrent result differs from its cold run", round, specs[i].Measure)
			}
		}
		hits, _, stores := wc.Stats()
		if stores != 1 {
			t.Errorf("round %d: %d snapshots stored for one prefix, want 1", round, stores)
		}
		// The run whose window equals the stored snapshot's restores it.
		if round == 1 && hits == hits0 {
			t.Error("no run restored the stored snapshot")
		}
	}
}

// encodedRun runs s, sampled at s.SampleEvery if set, and returns its
// encoded result followed by the sampled series.
func encodedRun(t *testing.T, s RunSpec) []byte {
	t.Helper()
	var hooks *telemetry.Hooks
	if s.SampleEvery > 0 {
		hooks = &telemetry.Hooks{Sampler: telemetry.NewSampler(s.SampleEvery)}
	}
	res, err := s.Run(hooks)
	if err != nil {
		t.Fatal(err)
	}
	out := EncodeResult(res)
	if hooks != nil {
		var series bytes.Buffer
		if err := hooks.Sampler.WriteJSONL(&series); err != nil {
			t.Fatal(err)
		}
		out = append(out, series.Bytes()...)
	}
	return out
}
