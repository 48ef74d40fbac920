package experiments

import (
	"bytes"
	"errors"
	"testing"
)

// tableCSV runs experiment id on r and returns its CSV.
func tableCSV(t *testing.T, r *Runner, id string) []byte {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tab := RunOne(r, e)
	if tab.Failed {
		t.Fatalf("%s failed", id)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMemoKeyNoCrossMixCollision pins the memo's key contract for
// multi-programmed mixes. Every mix figure numbers its mixes "mix1"..,
// but the benchmark compositions differ per figure, so a key derived
// from the display name alone would serve fig16's cells to fig18 (same
// machine shape, same windows). The key must therefore spell out the
// composition: on one pool, fig18 run after fig16 must match fig18 run
// alone.
func TestMemoKeyNoCrossMixCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	alone := tableCSV(t, NewRunnerPool(tinyParams(), NewPool(4)), "fig18")
	pool := NewPool(4)
	tableCSV(t, NewRunnerPool(tinyParams(), pool), "fig16")
	after := tableCSV(t, NewRunnerPool(tinyParams(), pool), "fig18")
	if !bytes.Equal(after, alone) {
		t.Errorf("fig18 changes when fig16 ran first on the pool (memo key collision):\n--- alone ---\n%s\n--- after fig16 ---\n%s", alone, after)
	}
}

// TestMemoSharedAcrossRunners runs a single-core and a mix figure on
// one Runner, then again on a second Runner on the same pool: the
// second must simulate nothing and render byte-identical tables.
func TestMemoSharedAcrossRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	pool := NewPool(4)
	first := NewRunnerPool(tinyParams(), pool)
	second := NewRunnerPool(tinyParams(), pool)
	for _, id := range []string{"fig05", "fig16"} {
		want := tableCSV(t, first, id)
		got := tableCSV(t, second, id)
		if !bytes.Equal(got, want) {
			t.Errorf("%s from the memo differs:\n--- simulated ---\n%s\n--- memo ---\n%s", id, want, got)
		}
	}
	if first.Runs() == 0 {
		t.Fatal("first runner simulated nothing")
	}
	if got := second.Runs(); got != 0 {
		t.Errorf("second runner simulated %d cells, want 0", got)
	}
	hits, simulated := pool.MemoStats()
	if simulated != first.Runs() {
		t.Errorf("memo simulated %d cells, want the first runner's %d", simulated, first.Runs())
	}
	if hits < simulated {
		t.Errorf("memo served %d hits, want at least the %d cells the second runner reused", hits, simulated)
	}

	// Different Params are a different memo namespace.
	other := tinyParams()
	other.Seed++
	third := NewRunnerPool(other, pool)
	tableCSV(t, third, "fig05")
	if third.Runs() == 0 {
		t.Error("a runner with a different seed was served another seed's cells")
	}
}

// TestMemoDropsFailedCell verifies a failed cell is not retained: after
// a cell fails persistently under the fault hook, a later Runner on the
// same pool simulates it afresh and succeeds.
func TestMemoDropsFailedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	pool := NewPool(2)
	spec := irregularSpec(t)
	p := tinyParams()
	p.FaultHook = func(string, int) error { return errors.New("always failing") }
	if _, err := NewRunnerPool(p, pool).singleF(spec, cfgNone).Result(); err == nil {
		t.Fatal("persistently failing cell reported success")
	}
	if n := pool.memo.len(); n != 0 {
		t.Errorf("memo retained %d cells after the failure, want 0", n)
	}
	r := NewRunnerPool(tinyParams(), pool)
	res, err := r.singleF(spec, cfgNone).Result()
	if err != nil {
		t.Fatalf("later runner inherited the failure: %v", err)
	}
	if res.IPC() <= 0 || r.Runs() != 1 {
		t.Errorf("later runner: IPC %.3f, Runs() = %d; want a fresh simulation", res.IPC(), r.Runs())
	}
}
