package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// TestFutureResultAfterPanic is the regression test for the Wait
// deadlock: a panic inside the pooled function must resolve the Future
// with a *RunError (stack attached) instead of leaving waiters blocked
// on a channel that never closes.
func TestFutureResultAfterPanic(t *testing.T) {
	f := Go(NewPool(2), func() sim.Result { panic("kaboom") })
	_, err := f.Result()
	if err == nil {
		t.Fatal("panicking job resolved without error")
	}
	if err.Reason != "panic" {
		t.Errorf("reason = %q, want panic", err.Reason)
	}
	if err.Err == nil || !strings.Contains(err.Err.Error(), "kaboom") {
		t.Errorf("wrapped error = %v, want the panic value", err.Err)
	}
	if len(err.Stack) == 0 {
		t.Error("no stack captured at the panic site")
	}
	// Wait on the same Future re-panics with the identical error rather
	// than hanging or returning a zero value.
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("Wait returned normally after a failed run")
			}
			if rec.(*RunError) != err {
				t.Error("Wait re-panicked with a different error value")
			}
		}()
		f.Wait()
	}()
}

// TestPanicIsolationProducesErrorTable injects a panicking prefetcher
// factory into one experiment and runs it alongside a healthy sibling:
// the failed experiment must degrade into an annotated error table
// (stack included) while the sibling completes normally.
func TestPanicIsolationProducesErrorTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	spec := irregularSpec(t)
	boom := Experiment{
		ID:    "boom",
		Short: "injected panicking workload",
		Run: func(r *Runner) *Table {
			f := r.changedF(spec, namedPF{"boom", func(config.Machine) prefetch.Prefetcher {
				panic("injected workload panic")
			}}, machineChange{LLCBytes: 1 << 20})
			f.Wait()
			return &Table{ID: "boom"}
		},
	}
	healthy, _ := ByID("fig01")

	r := NewRunnerPool(tinyParams(), NewPool(4))
	tables := RunAll(r, []Experiment{boom, healthy})

	bad := tables[0]
	if !bad.Failed {
		t.Fatal("panicking experiment's table not marked failed")
	}
	if !strings.Contains(bad.Title, "FAILED") {
		t.Errorf("error table title %q lacks FAILED marker", bad.Title)
	}
	var rows strings.Builder
	for _, row := range bad.Rows {
		rows.WriteString(strings.Join(row, " "))
	}
	if !strings.Contains(rows.String(), "injected workload panic") {
		t.Errorf("error row omits the panic message:\n%s", rows.String())
	}
	if !strings.Contains(rows.String(), spec.Name+"/llc1024KB/boom failed") {
		t.Errorf("error row does not name the cell's key:\n%s", rows.String())
	}
	notes := strings.Join(bad.Notes, "\n")
	if !strings.Contains(notes, "fault_test.go") {
		t.Errorf("error table notes omit the panic-site stack frame:\n%s", notes)
	}

	good := tables[1]
	if good.Failed {
		t.Error("healthy sibling marked failed")
	}
	if len(good.Rows) == 0 {
		t.Error("healthy sibling produced no rows")
	}
	if !AnyFailed(tables) {
		t.Error("AnyFailed missed the failed table")
	}
}

// TestDeadlineFailsRun arms the wall-clock watchdog against a run far
// too large to finish in time and verifies it aborts with a structured
// error instead of running for minutes.
func TestDeadlineFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	p := tinyParams()
	p.Measure = 2_000_000_000 // minutes of work; the watchdog must cut it off
	p.Deadline = 50 * time.Millisecond
	r := NewRunnerPool(p, NewPool(1))
	start := time.Now()
	_, err := r.singleF(irregularSpec(t), cfgNone).Result()
	if err == nil {
		t.Fatal("2G-instruction run beat a 50ms deadline")
	}
	if err.Reason != "aborted" {
		t.Errorf("reason = %q, want aborted", err.Reason)
	}
	var ab *sim.Aborted
	if !errors.As(err, &ab) {
		t.Fatalf("error %v does not unwrap to *sim.Aborted", err)
	}
	if !strings.Contains(ab.Reason, "deadline") {
		t.Errorf("abort reason %q does not mention the deadline", ab.Reason)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("abort took %s; watchdog did not cancel promptly", elapsed)
	}
}
