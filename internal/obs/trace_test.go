package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestTraceSpanLifecycle pins the span record: ordered, monotonic
// timestamps, idempotent End, attrs attached, zero SpanRef inert.
func TestTraceSpanLifecycle(t *testing.T) {
	tr := NewTrace("t1", "j1")
	admit := tr.Start("admit")
	admit.Annotate("disposition", "new")
	admit.End()
	admit.End() // idempotent
	qw := tr.Start("queue-wait")
	qw.End()
	tr.Mark("result-served", nil)

	var zero SpanRef
	zero.End() // must not panic
	zero.Annotate("k", "v")

	d := tr.Dump()
	if d.TraceID != "t1" || d.JobID != "j1" {
		t.Fatalf("dump ids %q/%q", d.TraceID, d.JobID)
	}
	names := []string{"admit", "queue-wait", "result-served"}
	if len(d.Spans) != len(names) {
		t.Fatalf("got %d spans, want %d", len(d.Spans), len(names))
	}
	var last int64
	for i, sp := range d.Spans {
		if sp.Name != names[i] {
			t.Errorf("span %d is %q, want %q", i, sp.Name, names[i])
		}
		if sp.Start < last {
			t.Errorf("span %q starts before the previous span's timestamps", sp.Name)
		}
		if sp.End < sp.Start {
			t.Errorf("span %q ends (%d) before it starts (%d)", sp.Name, sp.End, sp.Start)
		}
		last = sp.End
	}
	if d.Spans[0].Attrs["disposition"] != "new" {
		t.Error("annotation lost")
	}
	// The dump is JSON-marshalable (the /debug/trace wire format).
	if _, err := json.Marshal(d); err != nil {
		t.Fatal(err)
	}
}

// TestValidateTraceRejectsDisorder pins the trace checker both ways.
func TestValidateTraceRejectsDisorder(t *testing.T) {
	good := TraceDump{TraceID: "t", Spans: []Span{
		{Name: "admit", Start: 1, End: 1},
		{Name: "run", Start: 2, End: 9},
		{Name: "measure-start", Start: 3, End: 3}, // nested inside run
		{Name: "done", Start: 9, End: 9},
	}}
	if err := ValidateTrace(good, "admit", "run", "done"); err != nil {
		t.Errorf("ordered trace rejected: %v", err)
	}
	for name, c := range map[string]struct {
		spans []Span
		names []string
	}{
		"start goes backwards": {[]Span{{Name: "admit", Start: 5}, {Name: "done", Start: 4}}, nil},
		"ends before start":    {[]Span{{Name: "run", Start: 5, End: 4}}, nil},
		"missing span":         {good.Spans, []string{"admit", "store-put", "done"}},
		"out of order":         {good.Spans, []string{"done", "admit"}},
		"empty trace":          {nil, []string{"done"}},
	} {
		if err := ValidateTrace(TraceDump{TraceID: "t", Spans: c.spans}, c.names...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRecorderRingEviction pins the bounded flight recorder: oldest
// traces fall out, lookups work by both trace and job id.
func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Add(NewTrace(fmt.Sprintf("t%d", i), fmt.Sprintf("j%d", i)))
	}
	if r.Len() != 3 {
		t.Fatalf("recorder holds %d traces, want 3", r.Len())
	}
	if _, ok := r.Get("t0"); ok {
		t.Error("evicted trace still resolvable")
	}
	if _, ok := r.Get("j1"); ok {
		t.Error("evicted trace still resolvable by job id")
	}
	for _, id := range []string{"t2", "j2", "t4", "j4"} {
		if _, ok := r.Get(id); !ok {
			t.Errorf("live trace %s not resolvable", id)
		}
	}
	dumps := r.DumpAll()
	if len(dumps) != 3 || dumps[0].TraceID != "t2" || dumps[2].TraceID != "t4" {
		t.Errorf("DumpAll order wrong: %+v", dumps)
	}
}

// TestRecorderIncident pins the out-of-band incident records used on
// degraded-mode entry.
func TestRecorderIncident(t *testing.T) {
	r := NewRecorder(8)
	id := r.Incident("degraded-enter", map[string]string{"cause": "disk on fire"})
	if r.Incidents() != 1 {
		t.Fatalf("incidents = %d, want 1", r.Incidents())
	}
	tr, ok := r.Get(id)
	if !ok {
		t.Fatal("incident not resolvable by id")
	}
	d := tr.Dump()
	if len(d.Spans) != 1 || d.Spans[0].Attrs["cause"] != "disk on fire" {
		t.Fatalf("incident dump %+v lost the cause", d)
	}
}

// TestTraceConcurrentSpans is the race test for handoff between the
// submit handler, worker, and result handler goroutines plus a
// concurrent dumper.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("t", "j")
	rec := NewRecorder(4)
	rec.Add(tr)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start(fmt.Sprintf("g%d", g))
				sp.Annotate("i", "x")
				sp.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tr.Dump()
			rec.DumpAll()
		}
	}()
	wg.Wait()
	if got := len(tr.Dump().Spans); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}
