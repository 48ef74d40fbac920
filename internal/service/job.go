// Package service turns the experiment engine into shared
// infrastructure: a job-oriented simulation server with a bounded
// admission queue (backpressure instead of collapse), per-job
// priorities, single-flight dedup on the canonical spec key, a
// content-addressed result store that refuses results simulated under
// different parameters (experiments.Checkpoint + config fingerprint),
// live per-job telemetry over SSE, and graceful drain: in-flight jobs
// finish, queued jobs persist and are re-admitted on restart.
//
// cmd/triaged exposes a Server over HTTP; cmd/triagectl is the client.
package service

import (
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Job kinds.
const (
	// KindSingle is one benchmark x prefetcher run (the triagesim
	// shape, experiments.RunSpec).
	KindSingle = "single"
	// KindFigure is one whole experiment from the paper registry
	// (experiments.ByID), run on the server's shared pool.
	KindFigure = "figure"
)

// State is a job's lifecycle phase.
type State string

// Job states. Queued jobs survive a restart (re-admitted from the
// store directory); running jobs finish before a drain completes; done
// and failed are terminal.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// JobSpec is the submission wire format. Exactly one of Run (single
// jobs) or Figure (figure jobs) is set. Priority orders admission:
// higher runs first, ties FIFO. Priority is not part of the job's
// identity — a re-submission at a different priority dedups onto the
// existing job.
type JobSpec struct {
	Kind     string               `json:"kind,omitempty"`
	Run      *experiments.RunSpec `json:"run,omitempty"`
	Figure   string               `json:"figure,omitempty"`
	Scale    *FigureScale         `json:"scale,omitempty"`
	Priority int                  `json:"priority,omitempty"`
}

// FigureScale is the JSON-safe subset of experiments.Params a figure
// job may override (zero fields keep the quick defaults). It mirrors
// the cmd/experiments override flags.
type FigureScale struct {
	Warmup       uint64 `json:"warmup,omitempty"`
	Measure      uint64 `json:"measure,omitempty"`
	MultiWarmup  uint64 `json:"multi_warmup,omitempty"`
	MultiMeasure uint64 `json:"multi_measure,omitempty"`
	Mixes        int    `json:"mixes,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	SampleEvery  uint64 `json:"sample_every,omitempty"`
}

// params resolves the scale against the quick defaults, the same way
// cmd/experiments resolves its override flags. Safe on a nil receiver.
func (fs *FigureScale) params() experiments.Params {
	p := experiments.DefaultParams()
	if fs == nil {
		return p
	}
	if fs.Warmup > 0 {
		p.Warmup = fs.Warmup
	}
	if fs.Measure > 0 {
		p.Measure = fs.Measure
	}
	if fs.MultiWarmup > 0 {
		p.MultiWarmup = fs.MultiWarmup
	}
	if fs.MultiMeasure > 0 {
		p.MultiMeasure = fs.MultiMeasure
	}
	if fs.Mixes > 0 {
		p.Mixes = fs.Mixes
	}
	if fs.Seed > 0 {
		p.Seed = fs.Seed
	}
	if fs.SampleEvery > 0 {
		p.SampleEvery = fs.SampleEvery
	}
	return p
}

// normalize canonicalizes the spec in place and validates it, so that
// equivalent submissions map to the same content key.
func (s *JobSpec) normalize() error {
	switch s.Kind {
	case "", KindSingle:
		s.Kind = KindSingle
		if s.Run == nil {
			return fmt.Errorf("single job: missing \"run\" spec")
		}
		s.Figure, s.Scale = "", nil
		s.Run.Normalize()
		// CheckEvery is a local debug knob, not a job property: it does
		// not change results and is excluded from the content key, so it
		// must not ride in over the wire either.
		s.Run.CheckEvery = 0
		return s.Run.Validate()
	case KindFigure:
		if s.Figure == "" {
			return fmt.Errorf("figure job: missing \"figure\" id")
		}
		if _, ok := experiments.ByID(s.Figure); !ok {
			return fmt.Errorf("unknown figure %q", s.Figure)
		}
		s.Run = nil
		return nil
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", s.Kind, KindSingle, KindFigure)
	}
}

// key returns the spec's canonical content key: every parameter that
// shapes the result, none that don't. Call after normalize.
func (s JobSpec) key() string {
	switch s.Kind {
	case KindFigure:
		p := s.Scale.params()
		return fmt.Sprintf("figure/%s/w%d/m%d/mw%d/mm%d/x%d/s%d/t%d",
			s.Figure, p.Warmup, p.Measure, p.MultiWarmup, p.MultiMeasure, p.Mixes, p.Seed, p.SampleEvery)
	default:
		return "single/" + s.Run.Key()
	}
}

// Job is one admitted submission. All mutable fields are guarded by
// the server's mutex; the feed carries the live telemetry fan-out.
type Job struct {
	id   string
	key  string
	spec JobSpec
	seq  uint64

	state       State
	cached      bool
	errMsg      string
	failedTable bool
	result      []byte // marshaled JobResult envelope, set when done

	feed *telemetry.JobFeed

	// trace is the job's span record (admit → queue-wait → run →
	// measure-start → store-put → result-served), held by the server's
	// flight recorder. queueSpan is opened at admission and closed by
	// Begin, which opens runSpan; admittedNS and begunNS stamp admission
	// and run start for the latency histograms; measured and servedOnce
	// mark measure-start and result-served exactly once.
	trace      *obs.Trace
	queueSpan  obs.SpanRef
	runSpan    obs.SpanRef
	admittedNS int64
	begunNS    int64
	measured   sync.Once
	servedOnce sync.Once
}

// Add, OnSample and OnCancel make a job the Sink of its own execution:
// an in-process run streams into it directly, and the cluster
// coordinator relays a worker's event batches into it. Progress and
// samples land in the feed; the first sample (the simulator samples
// only inside the measurement window) marks measure-start, and a
// watchdog abort lands on the run span with its reason.
func (j *Job) Add(n uint64) { j.feed.Add(n) }

// OnSample records one interval sample; see Add.
func (j *Job) OnSample(smp telemetry.Sample) {
	if j.trace != nil {
		j.measured.Do(func() { j.trace.Mark("measure-start", nil) })
	}
	j.feed.OnSample(smp)
}

// OnCancel annotates the run span with a watchdog abort; see Add.
func (j *Job) OnCancel(reason string) { j.runSpan.Annotate("cancelled", reason) }

// ID returns the job's content-addressed id (stable across restarts
// and re-submissions of the same spec).
func (j *Job) ID() string { return j.id }

// TraceID returns the job's trace id ("" when the job predates the
// recorder or tracing is off).
func (j *Job) TraceID() string {
	if j.trace == nil {
		return ""
	}
	return j.trace.ID()
}

// JobStatus is the status wire format.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// Cached marks a job satisfied from the warm result store without
	// simulating.
	Cached bool `json:"cached,omitempty"`
	// Instructions is the live retired-instruction count (progress).
	Instructions uint64 `json:"instructions"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Failed marks a done figure job whose table carries error rows.
	Failed bool `json:"failed,omitempty"`
	// Trace is the job's trace id, fetchable at /debug/trace/{trace}.
	Trace string `json:"trace,omitempty"`
}

// SubmitResponse is the submission wire format: the job's id plus how
// the submission was disposed (fresh admission, dedup onto an
// in-flight job, or served from the warm store).
type SubmitResponse struct {
	ID      string `json:"id"`
	Key     string `json:"key"`
	State   State  `json:"state"`
	Cached  bool   `json:"cached,omitempty"`
	Deduped bool   `json:"deduped,omitempty"`
	// Trace is the trace id assigned at admission; the span record is
	// fetchable at /debug/trace/{trace} (or by job id) while the
	// flight recorder still holds it.
	Trace string `json:"trace,omitempty"`
}

// JobResult is the result wire format. Single jobs carry the
// simulation result (encoded/decoded losslessly — uint64 exact,
// float64 shortest-round-trip) plus the sampled JSONL series when the
// spec asked for one; figure jobs carry the rendered table.
type JobResult struct {
	Kind         string             `json:"kind"`
	Result       *sim.Result        `json:"result,omitempty"`
	SamplesJSONL string             `json:"samples_jsonl,omitempty"`
	Table        *experiments.Table `json:"table,omitempty"`
}
