package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// TestSingleFlightSharedBaselines runs two figures that share every
// cached simulation (Fig05 and Fig06 use the same suite x config grid
// plus the no-prefetch baselines) concurrently on a wide pool. The
// pool's single-flight memo must simulate each distinct configuration
// exactly once, and under -race this doubles as the regression test for
// the memo's data races.
func TestSingleFlightSharedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	r := NewRunnerPool(tinyParams(), NewPool(8))
	e05, _ := ByID("fig05")
	e06, _ := ByID("fig06")
	RunAll(r, []Experiment{e05, e06})

	// Fig05 and Fig06 both run suite x {BO, SMS, T512, T1M, TDyn} plus
	// the baseline: 6 distinct runs per benchmark, shared between them.
	want := uint64(len(workload.IrregularSuite()) * 6)
	if got := r.Runs(); got != want {
		t.Errorf("executed %d simulations, want %d (baselines shared via single-flight)", got, want)
	}
	if got := uint64(r.pool.memo.len()); got != want {
		t.Errorf("memo holds %d cells, want %d", got, want)
	}
	if r.SimulatedInstructions() == 0 {
		t.Error("no simulated instructions recorded")
	}
}

// csvFor runs the given experiments under params p on a pool of the
// given width with telemetry sampling on, returning the concatenated
// CSV output and the per-run sampled JSONL series.
func csvFor(t *testing.T, p Params, workers int, ids []string) ([]byte, map[string][]byte) {
	t.Helper()
	p.SampleEvery = 10_000
	r := NewRunnerPool(p, NewPool(workers))
	var es []Experiment
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		es = append(es, e)
	}
	var buf bytes.Buffer
	for _, tab := range RunAll(r, es) {
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), r.SampleSeries()
}

// TestParallelDeterminism checks the acceptance criterion directly: a
// single-core figure and a multi-core mix figure produce byte-identical
// CSVs on one worker and on eight, and every cached run's sampled
// telemetry time series is byte-identical too.
//
// It also pins two properties of the batched step loop:
//
//   - Telemetry interval boundaries are exact. Every sampled series
//     must advance by exactly SampleEvery summed instructions per
//     sample — a batch overshooting a sample point would show up as a
//     shifted grid.
//   - Invariant-checker polling points don't perturb results. A run
//     with CheckEvery set to an awkward non-divisor of both the batch
//     sizes and the sample interval must reproduce the unchecked run's
//     CSVs and series byte for byte (and would panic outright if
//     batching left a structure inconsistent at a polling point).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	ids := []string{"fig05", "fig16"}
	seq, seqSamples := csvFor(t, tinyParams(), 1, ids)
	par, parSamples := csvFor(t, tinyParams(), 8, ids)
	if !bytes.Equal(seq, par) {
		t.Errorf("-j 8 output differs from -j 1:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
	if len(seqSamples) == 0 {
		t.Fatal("no sampled series recorded with SampleEvery set")
	}
	if len(parSamples) != len(seqSamples) {
		t.Fatalf("sample series count differs: j1=%d j8=%d", len(seqSamples), len(parSamples))
	}
	for key, want := range seqSamples {
		got, ok := parSamples[key]
		if !ok {
			t.Errorf("series %q missing on -j 8", key)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("series %q differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", key, want, got)
		}
		checkSampleGrid(t, key, want, 10_000)
	}

	checked := tinyParams()
	checked.CheckEvery = 7_001
	chk, chkSamples := csvFor(t, checked, 8, ids)
	if !bytes.Equal(seq, chk) {
		t.Errorf("CheckEvery=%d output differs from unchecked run:\n--- plain ---\n%s\n--- checked ---\n%s",
			checked.CheckEvery, seq, chk)
	}
	for key, want := range seqSamples {
		if got := chkSamples[key]; !bytes.Equal(want, got) {
			t.Errorf("series %q differs with CheckEvery=%d:\n--- plain ---\n%s\n--- checked ---\n%s",
				key, checked.CheckEvery, want, got)
		}
	}
}

// checkSampleGrid asserts that a sampled JSONL series advances by
// exactly `every` summed instructions per sample with consecutive
// interval indices: the batched step loop must stop precisely on
// telemetry boundaries.
func checkSampleGrid(t *testing.T, key string, series []byte, every uint64) {
	t.Helper()
	var prev uint64
	for i, line := range bytes.Split(bytes.TrimSpace(series), []byte("\n")) {
		var s struct {
			Interval     int    `json:"interval"`
			Instructions uint64 `json:"instructions"`
		}
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("series %q sample %d: %v", key, i, err)
		}
		if s.Interval != i {
			t.Fatalf("series %q sample %d has interval index %d", key, i, s.Interval)
		}
		if i > 0 && s.Instructions != prev+every {
			t.Fatalf("series %q sample %d: instructions %d, want %d (batching shifted a sample boundary)",
				key, i, s.Instructions, prev+every)
		}
		prev = s.Instructions
	}
}
