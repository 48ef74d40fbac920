package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func sampleTable() *Table {
	t := &Table{
		ID:     "figXX",
		Title:  "sample",
		Header: []string{"benchmark", "speedup"},
	}
	t.AddRow("mcf", "1.234")
	t.AddRow("omnetpp", "1.100")
	t.Note("a note with %d", 42)
	return t
}

func TestTableFprintAlignment(t *testing.T) {
	var buf bytes.Buffer
	sampleTable().Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "figXX") || !strings.Contains(out, "sample") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "1.234") {
		t.Errorf("missing row data: %q", out)
	}
	if !strings.Contains(out, "a note with 42") {
		t.Errorf("missing formatted note: %q", out)
	}
	// Columns align: every data line has the speedup at the same offset.
	lines := strings.Split(out, "\n")
	var dataCols []int
	for _, ln := range lines {
		if strings.Contains(ln, "1.234") {
			dataCols = append(dataCols, strings.Index(ln, "1.234"))
		}
		if strings.Contains(ln, "1.100") {
			dataCols = append(dataCols, strings.Index(ln, "1.100"))
		}
	}
	if len(dataCols) != 2 || dataCols[0] != dataCols[1] {
		t.Errorf("columns not aligned: %v", dataCols)
	}
}

func TestTableCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# figXX", "benchmark,speedup", "mcf,1.234", "# note"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

// TestCollectSpeedups pins the speedup collector the grid figures
// share: speedups over each row's baseline, ERROR for a failed cell and
// for every cell of a row whose baseline failed, one note per failure,
// and a geomean row over the cells that ran.
func TestCollectSpeedups(t *testing.T) {
	ran := func(cycles uint64) *Future[sim.Result] {
		return Resolved(sim.Result{Cores: []sim.CoreResult{{Instructions: 100, Cycles: cycles}}})
	}
	failed := func(key string) *Future[sim.Result] {
		f := &Future[sim.Result]{done: make(chan struct{}), err: &RunError{Key: key, Reason: "fault", Err: errors.New("boom")}}
		close(f.done)
		return f
	}
	tbl := &Table{ID: "figXX", Header: []string{"mix", "A", "B"}}
	collectSpeedups(tbl, []string{"m0", "m1", "m2"},
		[]*Future[sim.Result]{ran(100), ran(100), failed("m2/base")},
		[][]*Future[sim.Result]{
			{ran(50), ran(25)},
			{failed("m1/A"), ran(200)},
			{ran(50), ran(50)},
		})
	want := [][]string{
		{"m0", "2.000", "4.000"},
		{"m1", "ERROR", "0.500"},
		{"m2", "ERROR", "ERROR"},
		{"geomean", "2.000", "1.414"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("rows = %q, want %q", tbl.Rows, want)
	}
	if !tbl.Failed {
		t.Error("table with failed cells not marked failed")
	}
	notes := strings.Join(tbl.Notes, "\n")
	for _, key := range []string{"m1/A", "m2/base"} {
		if !strings.Contains(notes, "FAILED cell: "+key) {
			t.Errorf("notes omit the failure of %s:\n%s", key, notes)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean(nil); g != 1 {
		t.Errorf("geomean(nil) = %g, want 1", g)
	}
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %g, want 4", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Errorf("geomean with zero = %g, want 0", g)
	}
}

func TestMean(t *testing.T) {
	if m := mean(nil); m != 0 {
		t.Errorf("mean(nil) = %g", m)
	}
	if m := mean([]float64{1, 3}); m != 2 {
		t.Errorf("mean(1,3) = %g, want 2", m)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Short == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every figure of the paper's evaluation section is present.
	for _, want := range []string{
		"fig01", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "sens-epoch", "sens-latency",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	if _, ok := ByID("fig05"); !ok {
		t.Error("fig05 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("found nonexistent experiment")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs length mismatch")
	}
}

// tinyParams shrink runs to smoke-test scale.
func tinyParams() Params {
	return Params{
		Warmup:       60_000,
		Measure:      40_000,
		MultiWarmup:  30_000,
		MultiMeasure: 20_000,
		Mixes:        2,
		Seed:         7,
	}
}

// TestFiguresSmoke runs EVERY registered experiment end-to-end at tiny
// scale, checking table structure rather than values — the integration
// test that keeps all 23 artifacts runnable.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	r := NewRunner(tinyParams())
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(r)
			if tab.ID != e.ID {
				t.Errorf("table id %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row width %d != header width %d (%v)", len(row), len(tab.Header), row)
				}
			}
		})
	}
}

// TestMultiCoreFigureSmoke runs one multi-core figure at tiny scale.
func TestMultiCoreFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	r := NewRunner(tinyParams())
	tab := r.Fig16()
	if len(tab.Rows) != tinyParams().Mixes+1 { // mixes + geomean
		t.Errorf("fig16 rows = %d, want %d", len(tab.Rows), tinyParams().Mixes+1)
	}
}

// TestRunnerCaching verifies that repeated requests for a cell reuse
// its result.
func TestRunnerCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	r := NewRunner(tinyParams())
	spec := irregularSpec(t)
	a := r.singleF(spec, cfgNone).Wait()
	before := r.pool.memo.len()
	b := r.singleF(spec, cfgNone).Wait()
	if r.pool.memo.len() != before {
		t.Error("second request for the cell grew the memo")
	}
	if r.Runs() != 1 {
		t.Errorf("Runs() = %d, want 1", r.Runs())
	}
	if a.IPC() != b.IPC() {
		t.Error("cached result differs")
	}
}

func irregularSpec(t *testing.T) workload.Spec {
	t.Helper()
	s, ok := workload.ByName("xalancbmk")
	if !ok {
		t.Fatal("xalancbmk missing")
	}
	return s
}
