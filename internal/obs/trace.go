package obs

import (
	"fmt"
	"sync"
	"time"
)

// Span is one phase of a traced job. Start/End are unix nanoseconds;
// End is zero while the span is open. Within a trace, timestamps are
// monotonic non-decreasing (the trace clamps against wall-clock
// steps), so span sequences always read in causal order.
type Span struct {
	Name  string            `json:"name"`
	Start int64             `json:"start_ns"`
	End   int64             `json:"end_ns,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is the span record of one job, from admission to the first
// result fetch. Spans are appended by the goroutine currently driving
// the job (submit handler, queue worker, result handler); the mutex
// makes cross-goroutine handoffs and concurrent dumps safe.
type Trace struct {
	mu     sync.Mutex
	id     string
	job    string
	spans  []Span
	lastNS int64
}

// NewTrace returns an empty trace for the given trace and job ids.
func NewTrace(id, job string) *Trace {
	return &Trace{id: id, job: job}
}

// ID returns the trace id.
func (t *Trace) ID() string { return t.id }

// nowLocked returns a wall-clock timestamp clamped to be >= every
// timestamp already recorded in this trace. Callers hold t.mu.
func (t *Trace) nowLocked() int64 {
	ns := time.Now().UnixNano()
	if ns < t.lastNS {
		ns = t.lastNS
	}
	t.lastNS = ns
	return ns
}

// SpanRef addresses one span inside a trace for End/Annotate. The zero
// value is inert: End and Annotate on it are no-ops, so callers can
// hold an unconditional ref and only sometimes start the span.
type SpanRef struct {
	t   *Trace
	idx int
}

// Start opens a new span.
func (t *Trace) Start(name string) SpanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: t.nowLocked()})
	return SpanRef{t: t, idx: len(t.spans)}
}

// Mark records an instantaneous event as a zero-length span.
func (t *Trace) Mark(name string, attrs map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.nowLocked()
	t.spans = append(t.spans, Span{Name: name, Start: ns, End: ns, Attrs: attrs})
}

// End closes the span (idempotent: only the first End sticks).
func (r SpanRef) End() {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if sp := &r.t.spans[r.idx-1]; sp.End == 0 {
		sp.End = r.t.nowLocked()
	}
}

// Annotate attaches a key/value attribute to the span.
func (r SpanRef) Annotate(k, v string) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	sp := &r.t.spans[r.idx-1]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string)
	}
	sp.Attrs[k] = v
}

// TraceDump is the JSON wire shape of a trace.
type TraceDump struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	Spans   []Span `json:"spans"`
}

// Dump snapshots the trace.
func (t *Trace) Dump() TraceDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	return TraceDump{TraceID: t.id, JobID: t.job, Spans: spans}
}

// ValidateTrace checks that d reads in causal order: span starts never
// go backwards, no closed span ends before it starts, and names occur
// among the spans in the given order, with any other spans between
// them. An enclosing span (run around measure-start) may end after a
// later span starts. It returns the first violation. Tests use it to
// assert the /debug/trace contract.
func ValidateTrace(d TraceDump, names ...string) error {
	next := 0
	var last int64
	for _, sp := range d.Spans {
		if sp.Start < last {
			return fmt.Errorf("trace %s: span %q starts at %d, before the previous span's start %d", d.TraceID, sp.Name, sp.Start, last)
		}
		last = sp.Start
		if sp.End != 0 && sp.End < sp.Start {
			return fmt.Errorf("trace %s: span %q ends (%d) before it starts (%d)", d.TraceID, sp.Name, sp.End, sp.Start)
		}
		if next < len(names) && sp.Name == names[next] {
			next++
		}
	}
	if next < len(names) {
		got := make([]string, len(d.Spans))
		for i, sp := range d.Spans {
			got[i] = sp.Name
		}
		return fmt.Errorf("trace %s: span %q missing from %v (want the order %v)", d.TraceID, names[next], got, names)
	}
	return nil
}

// Recorder is the flight recorder: a bounded ring of recent traces,
// addressable by trace or job id. When full, the oldest trace is
// evicted. It is the backing store of GET /debug/trace/{id} and of the
// dump written on degraded-mode entry.
type Recorder struct {
	mu        sync.Mutex
	cap       int
	order     []*Trace // insertion order, oldest first
	byID      map[string]*Trace
	incidents int
}

// NewRecorder returns a recorder bounded to cap traces (minimum 1).
func NewRecorder(cap int) *Recorder {
	if cap < 1 {
		cap = 1
	}
	return &Recorder{cap: cap, byID: make(map[string]*Trace)}
}

// Add registers a trace, evicting the oldest when full. Traces are
// added at job admission so in-flight jobs are dumpable too.
func (r *Recorder) Add(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == r.cap {
		old := r.order[0]
		r.order = r.order[1:]
		// Only unmap ids still pointing at the evictee: a re-added trace
		// with the same id must keep its (newer) mapping.
		if r.byID[old.id] == old {
			delete(r.byID, old.id)
		}
		if old.job != "" && r.byID[old.job] == old {
			delete(r.byID, old.job)
		}
	}
	r.order = append(r.order, t)
	r.byID[t.id] = t
	if t.job != "" {
		r.byID[t.job] = t
	}
}

// Get looks a trace up by trace id or job id.
func (r *Recorder) Get(id string) (*Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// Incident records an out-of-band event (a store fault, a degraded
// transition) as a one-span trace so the flight recorder's timeline
// captures why the service state changed, not just which jobs ran.
// Returns the incident's trace id.
func (r *Recorder) Incident(name string, attrs map[string]string) string {
	r.mu.Lock()
	r.incidents++
	id := fmt.Sprintf("incident-%d", r.incidents)
	r.mu.Unlock()
	t := NewTrace(id, "")
	t.Mark(name, attrs)
	r.Add(t)
	return id
}

// Incidents returns how many incidents were recorded.
func (r *Recorder) Incidents() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.incidents
}

// Len returns the number of traces currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// DumpAll snapshots every held trace, oldest first.
func (r *Recorder) DumpAll() []TraceDump {
	r.mu.Lock()
	traces := make([]*Trace, len(r.order))
	copy(traces, r.order)
	r.mu.Unlock()
	out := make([]TraceDump, len(traces))
	for i, t := range traces {
		out[i] = t.Dump()
	}
	return out
}
