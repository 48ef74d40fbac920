package experiments

import (
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/sim"
)

// RunError is the structured failure of one pooled run: what key it
// was, why it failed, and — for panics — the stack captured at the
// panic site. Futures resolve with a RunError instead of hanging, so a
// crashing cell degrades into an annotated error row while sibling
// runs complete.
type RunError struct {
	// Key is the run's cell key ("bench/config" for single-core
	// cells); "run" for jobs scheduled outside a Runner.
	Key string
	// Reason classifies the failure: "panic", "aborted" (watchdog
	// deadline/stall), or "fault" (injected by Params.FaultHook).
	Reason string
	// Err is the underlying panic value or injected error.
	Err error
	// Stack is the goroutine stack at the panic site (nil for non-panic
	// failures).
	Stack []byte
}

func (e *RunError) Error() string {
	key := e.Key
	if key == "" {
		key = "run"
	}
	return fmt.Sprintf("%s failed (%s): %v", key, e.Reason, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// asRunError normalizes a recovered panic value into a *RunError,
// capturing the stack for raw panics. Called inside the deferred
// recover, so debug.Stack still sees the panic origin frames.
func asRunError(rec any) *RunError {
	switch v := rec.(type) {
	case *RunError:
		return v
	case *sim.Aborted:
		return &RunError{Reason: "aborted", Err: v}
	case error:
		return &RunError{Reason: "panic", Err: v, Stack: debug.Stack()}
	default:
		return &RunError{Reason: "panic", Err: fmt.Errorf("%v", v), Stack: debug.Stack()}
	}
}

// stackLines trims a captured stack to at most n lines for table notes.
func stackLines(stack []byte, n int) []string {
	if len(stack) == 0 {
		return nil
	}
	lines := strings.Split(strings.TrimRight(string(stack), "\n"), "\n")
	if len(lines) > n {
		rest := len(lines) - n
		lines = append(lines[:n:n], fmt.Sprintf("... (%d more stack lines)", rest))
	}
	return lines
}

// errorTable renders a whole-experiment failure as a table so sibling
// figures still print; the run exits nonzero via AnyFailed.
func errorTable(e Experiment, err *RunError) *Table {
	t := &Table{
		ID:     e.ID,
		Title:  e.Short + " — FAILED",
		Header: []string{"status", "error"},
		Failed: true,
	}
	t.AddRow("error", err.Error())
	t.Note("experiment failed; sibling experiments completed normally")
	for _, l := range stackLines(err.Stack, 24) {
		t.Note("%s", l)
	}
	return t
}
