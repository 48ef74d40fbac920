package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// queueFile is the admission log: one record per admitted job (its
// spec, as a blob keyed by the job's content key), kept beside the
// result store and in its format, so a restart re-admits every job
// whose result the store lacks.
const queueFile = "queue.jsonl"

// Config sizes a Server.
type Config struct {
	// StoreDir holds the content-addressed result store (runs.jsonl)
	// and the admission log (queue.jsonl). Required.
	StoreDir string
	// QueueCap bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with ErrQueueFull (HTTP 429).
	// Default 64.
	QueueCap int
	// Workers is the number of in-process job slots, and the size of
	// the shared simulation pool they run on. 0 means none: admitted
	// jobs wait for an external dispatcher (the cluster coordinator,
	// internal/cluster) to Take them.
	Workers int
	// Deadline and Stall arm a per-job watchdog (see experiments
	// Params); zero disables.
	Deadline time.Duration
	Stall    time.Duration
	// Gate, when non-nil, is called on an in-process slot right after
	// Begin, before the job executes. Test hook for holding slots at a
	// deterministic point — leave nil in production.
	Gate func(key string)
	// FS is the filesystem the durable state (result store, admission
	// log) is written through. Nil means the real filesystem; tests
	// substitute a vfs.Faulty/vfs.Mem stack to inject disk faults and
	// crashes.
	FS vfs.FS
	// CorpusDir, when non-empty, opens (creating if needed) the
	// content-addressed trace corpus there and makes it the process-
	// wide trace source, so submitted RunSpecs may name materialized
	// traces by hash (RunSpec.Trace). Unknown hashes are rejected at
	// admission, not at run time.
	CorpusDir string
	// ProbeInterval paces the degraded-mode recovery probe: while the
	// store is failing, the server retries persisting the preserved
	// in-memory results this often, and returns to service when the
	// disk recovers. Default 2s.
	ProbeInterval time.Duration
	// TraceCap bounds the flight recorder (traces held for
	// /debug/trace). Default 256.
	TraceCap int
	// TraceLog, when non-nil, receives a JSON dump of the whole flight
	// recorder on every transition into degraded mode, so the trace
	// timeline leading up to a store fault survives a crash. cmd/triaged
	// points it at stderr; leave nil to disable.
	TraceLog io.Writer
}

// Submission errors mapped to HTTP status codes by the handlers.
var (
	// ErrQueueFull is backpressure: the admission queue is at capacity.
	ErrQueueFull = errors.New("admission queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server is draining")
	// ErrDegraded rejects submissions while the store is failing: the
	// server is read-only (existing jobs and warm results still serve)
	// until the recovery probe sees the disk heal.
	ErrDegraded = errors.New("store is failing; server is degraded (read-only)")
)

// BadSpecError wraps a spec validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// Disposition says how a submission was satisfied.
type Disposition int

// Submission dispositions.
const (
	// DispNew admitted a fresh job.
	DispNew Disposition = iota
	// DispDeduped joined an existing queued/running/done job with the
	// same content key (single-flight).
	DispDeduped
	// DispCached materialized a done job straight from the warm result
	// store without simulating.
	DispCached
)

// Server is the simulation service: admission queue, job slots,
// content-addressed result store, and per-job telemetry fan-out.
// Create with New, serve its Handler, stop with Drain then Close.
type Server struct {
	cfg  Config
	fsys vfs.FS
	fp   string
	pool *experiments.Pool
	prog *telemetry.PoolProgress
	q    *jobQueue
	obs  *serverObs

	mu            sync.Mutex
	store         *experiments.Checkpoint
	admits        *experiments.Checkpoint // the admission log (queueFile)
	jobs          map[string]*Job         // by id
	byKey         map[string]*Job
	seq           uint64
	pending       []pendingResult // completed but not yet persisted (degraded mode)
	degradedCause string

	draining atomic.Bool
	degraded atomic.Bool
	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
	started  time.Time

	// The service counters live in the obs registry (newServerObs
	// registers them); /metrics renders them as JSON and Prometheus.
	mSubmitted    *obs.Counter
	mDeduped      *obs.Counter
	mStoreHits    *obs.Counter
	mRejectedFull *obs.Counter
	mRejectedDrng *obs.Counter
	mRejectedDegr *obs.Counter
	mCompleted    *obs.Counter
	mFailed       *obs.Counter
	mRunning      *obs.Gauge
	mRestored     *obs.Counter // queued jobs re-admitted at startup
	mStoreErrors  *obs.Counter // store/admission-log write or sync failures
	mDegradedIn   *obs.Counter // transitions into degraded mode
	mRecovered    *obs.Counter // successful recoveries out of degraded mode
}

// pendingResult is one completed job whose durable write failed: the
// result stays correct in memory (served to clients, deduped onto)
// and the recovery probe re-attempts persistence until the disk
// heals. A crash before that loses only work that was never durable —
// the job is still in the admission log and re-simulates on restart.
type pendingResult struct {
	key     string
	isBlob  bool
	res     sim.Result
	samples []byte
	blob    []byte
}

// New opens (or creates) the store directory, re-admits any jobs that
// were queued when the previous process stopped, and starts the
// in-process slots. The store is stamped with the configuration
// fingerprint (Table 1 machine + workload suite); a directory written
// under different parameters is refused.
func New(cfg Config) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("service: Config.StoreDir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS{}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = 256
	}
	if cfg.CorpusDir != "" {
		if err := experiments.SetTraceCorpus(cfg.CorpusDir); err != nil {
			return nil, err
		}
	}
	fp := experiments.ConfigFingerprint(config.Default(1))
	store, err := experiments.OpenCheckpointFS(cfg.FS, cfg.StoreDir, fp)
	if err != nil {
		return nil, err
	}
	// Jobs whose result is durable are done: opening the admission log
	// compacts them away.
	admits, queued, err := experiments.OpenLogFS(cfg.FS, cfg.StoreDir, queueFile, fp, store.Has)
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		fsys:    cfg.FS,
		fp:      fp,
		pool:    experiments.NewPool(cfg.Workers),
		prog:    telemetry.NewPoolProgress(0),
		q:       newJobQueue(),
		store:   store,
		admits:  admits,
		jobs:    make(map[string]*Job),
		byKey:   make(map[string]*Job),
		stopc:   make(chan struct{}),
		started: time.Now(),
	}
	s.pool.SetProgress(s.prog)
	s.obs = newServerObs(s)
	if err := s.recoverQueue(queued); err != nil {
		s.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.probeLoop()
	return s, nil
}

// idOf derives the content-addressed job id from the canonical key.
// Deterministic, so ids survive restarts and re-submissions.
func idOf(key string) string {
	h := sha256.Sum256([]byte(key))
	return "j" + hex.EncodeToString(h[:8])
}

// admitTrace creates and registers a job's trace: an "admit" mark
// carrying the disposition, plus — for jobs that will actually queue —
// the open queue-wait span the worker closes. Called with s.mu held
// (j.seq was just assigned, making the trace id unique per admission).
func (s *Server) admitTrace(j *Job, disposition string, queued bool) {
	tr := obs.NewTrace(fmt.Sprintf("t%06d", j.seq), j.id)
	j.trace = tr
	j.admittedNS = time.Now().UnixNano()
	tr.Mark("admit", map[string]string{"disposition": disposition, "kind": j.spec.Kind})
	if queued {
		j.queueSpan = tr.Start("queue-wait")
	}
	s.obs.rec.Add(tr)
}

// recoverQueue re-admits, in admission order, the jobs the admission
// log still holds (keys, as OpenLogFS returned them): queued, at their
// original priority. A job this process cannot run under its key (say,
// a trace job after a restart without its corpus) is an error, not a
// silently dropped job.
func (s *Server) recoverQueue(keys []string) error {
	for _, key := range keys {
		blob, _ := s.admits.GetBlob(key)
		var spec JobSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			return fmt.Errorf("admission log: job %s: %w", key, err)
		}
		if err := spec.normalize(); err != nil {
			return fmt.Errorf("admission log: job %s cannot be re-admitted: %w", key, err)
		}
		if k := spec.key(); k != key {
			return fmt.Errorf("admission log: job %s has key %s under this build", key, k)
		}
		s.seq++
		j := &Job{
			id:    idOf(key),
			key:   key,
			spec:  spec,
			seq:   s.seq,
			state: StateQueued,
			feed:  telemetry.NewJobFeed(),
		}
		s.jobs[j.id] = j
		s.byKey[j.key] = j
		s.admitTrace(j, "restored", true)
		s.obs.gQueueHWM.SetMax(int64(s.q.push(j)))
		s.mRestored.Add(1)
	}
	return nil
}

// Submit validates and admits one job. The returned Disposition says
// whether the submission created a fresh job, joined an existing one,
// or was served from the warm store. Errors: *BadSpecError (400),
// ErrDraining (503), ErrQueueFull (429), or an I/O failure persisting
// the admission (500).
func (s *Server) Submit(spec JobSpec) (*Job, Disposition, error) {
	if err := spec.normalize(); err != nil {
		return nil, DispNew, &BadSpecError{Err: err}
	}
	key := spec.key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.byKey[key]; ok && j.state != StateFailed {
		s.mDeduped.Add(1)
		if j.trace != nil {
			j.trace.Mark("admit", map[string]string{"disposition": "deduped"})
		}
		return j, DispDeduped, nil
	}
	if j, ok := s.jobFromStore(key, spec); ok {
		s.mStoreHits.Add(1)
		s.jobs[j.id] = j
		s.byKey[key] = j
		s.admitTrace(j, "cached", false)
		return j, DispCached, nil
	}
	if s.draining.Load() {
		s.mRejectedDrng.Add(1)
		return nil, DispNew, ErrDraining
	}
	if s.degraded.Load() {
		s.mRejectedDegr.Add(1)
		return nil, DispNew, ErrDegraded
	}
	if s.q.len() >= s.cfg.QueueCap {
		s.mRejectedFull.Add(1)
		return nil, DispNew, ErrQueueFull
	}
	// Persist the admission — append AND fsync — before acknowledging
	// it: an accepted job survives any crash from here on (re-admitted
	// by recoverQueue). A failing append flips the server into
	// degraded mode instead of acknowledging a job the disk never saw.
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, DispNew, err
	}
	if err := s.admits.PutBlob(key, blob); err != nil {
		s.enterDegradedLocked(fmt.Errorf("persisting admission: %w", err))
		return nil, DispNew, fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	s.seq++
	j := &Job{
		id:    idOf(key),
		key:   key,
		spec:  spec,
		seq:   s.seq,
		state: StateQueued,
		feed:  telemetry.NewJobFeed(),
	}
	s.jobs[j.id] = j
	s.byKey[key] = j
	s.admitTrace(j, "new", true)
	s.obs.gQueueHWM.SetMax(int64(s.q.push(j)))
	s.mSubmitted.Add(1)
	return j, DispNew, nil
}

// jobFromStore materializes a done job from the warm result store.
// Called with s.mu held.
func (s *Server) jobFromStore(key string, spec JobSpec) (*Job, bool) {
	payload, ok := s.storedPayload(key, spec.Kind)
	if !ok {
		return nil, false
	}
	s.seq++
	j := &Job{
		id:     idOf(key),
		key:    key,
		spec:   spec,
		seq:    s.seq,
		state:  StateDone,
		cached: true,
		result: payload,
		feed:   telemetry.NewJobFeed(),
	}
	j.feed.Finish()
	return j, true
}

// storedPayload reads a key's durable result as the envelope clients
// are served. Called with s.mu held.
func (s *Server) storedPayload(key, kind string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	if kind == KindFigure {
		return s.store.GetBlob(key)
	}
	res, samples, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	return marshalEnvelope(JobResult{Kind: KindSingle, Result: &res, SamplesJSONL: string(samples)}), true
}

// marshalEnvelope encodes a result envelope; the payload is plain
// exported data, so Marshal cannot fail.
func marshalEnvelope(env JobResult) []byte {
	b, err := json.Marshal(env)
	if err != nil {
		panic(fmt.Sprintf("service: encoding job result: %v", err))
	}
	return b
}

// Lookup finds a job by id.
func (s *Server) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status snapshots one job.
func (s *Server) Status(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Server) statusLocked(j *Job) JobStatus {
	return JobStatus{
		ID:           j.id,
		Key:          j.key,
		Kind:         j.spec.Kind,
		State:        j.state,
		Priority:     j.spec.Priority,
		Cached:       j.cached,
		Instructions: j.feed.Instructions(),
		Error:        j.errMsg,
		Failed:       j.failedTable,
		Trace:        j.TraceID(),
	}
}

// Jobs lists every known job in admission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	js := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(i, k int) bool { return js[i].seq < js[k].seq })
	for _, j := range js {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// Result returns a done job's marshaled JobResult envelope.
func (s *Server) Result(j *Job) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// worker is one in-process job slot. It drives jobs through the same
// lifecycle the cluster coordinator drives for remote workers — Take,
// Begin, Execute, then Complete or Fail — until the queue closes
// (drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := s.Take(); j != nil; j = s.Take() {
		if !s.Begin(j, "local") {
			continue
		}
		if gate := s.cfg.Gate; gate != nil {
			gate(j.key)
		}
		env, err := Execute(s.pool, j.key, j.spec, s.cfg.Deadline, s.cfg.Stall, j)
		if err != nil {
			s.Fail(j, err.Error())
		} else {
			s.Complete(j, env)
		}
	}
}

// persistTraced wraps persist in the job's store-put span and latency
// histogram.
func (s *Server) persistTraced(j *Job, p pendingResult) {
	var span obs.SpanRef
	if j.trace != nil {
		span = j.trace.Start("store-put")
	}
	start := time.Now()
	s.persist(p)
	s.obs.hStorePut.Observe(uint64(time.Since(start)))
	span.End()
}

// persist writes one completed result to the store. On failure the
// result is preserved in memory (the job still completes and serves)
// and the server degrades to read-only until the recovery probe gets
// it — and everything else pending — durably onto disk.
func (s *Server) persist(p pendingResult) {
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	if store == nil {
		return
	}
	var err error
	if p.isBlob {
		err = store.PutBlob(p.key, p.blob)
	} else {
		err = store.Put(p.key, p.res, p.samples)
	}
	if err != nil {
		s.mu.Lock()
		s.pending = append(s.pending, p)
		s.mu.Unlock()
		s.enterDegraded(fmt.Errorf("persisting result %s: %w", p.key, err))
	}
}

// enterDegraded flips the server read-only and records why. The
// transition is sticky until tryRecover proves the disk healthy and
// flushes every preserved result.
func (s *Server) enterDegraded(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enterDegradedLocked(cause)
}

// enterDegradedLocked is enterDegraded for callers already holding
// s.mu (Submit fails mid-admission with the lock held).
func (s *Server) enterDegradedLocked(cause error) {
	s.mStoreErrors.Add(1)
	s.degradedCause = cause.Error()
	if s.degraded.CompareAndSwap(false, true) {
		s.mDegradedIn.Add(1)
		s.obs.degradeEnter()
		// The incident joins the flight recorder's timeline, then the
		// whole recorder is dumped (if configured): the trace context
		// around a store fault should survive even if the process dies
		// before anyone scrapes /debug/trace.
		s.obs.rec.Incident("degraded-enter", map[string]string{"cause": cause.Error()})
		s.obs.dumpFlight(s.cfg.TraceLog, cause.Error())
	}
}

// Degraded reports whether the server is in read-only degraded mode.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// DegradedCause returns the last store failure that degraded the
// server (empty when it has never degraded).
func (s *Server) DegradedCause() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degradedCause
}

// probeLoop periodically attempts recovery while degraded. It runs
// for the server's lifetime and stops at Close.
func (s *Server) probeLoop() {
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			if s.degraded.Load() {
				s.tryRecover()
			}
		}
	}
}

// tryRecover probes the disk (store and admission-log fsync) and, if
// it responds, re-persists the preserved results in completion order.
// Only when everything pending is durable does the server return to
// service; a mid-flush failure leaves it degraded for the next probe.
func (s *Server) tryRecover() {
	s.mu.Lock()
	store, admits := s.store, s.admits
	pending := append([]pendingResult(nil), s.pending...)
	s.mu.Unlock()
	if store == nil {
		return
	}
	if err := store.Sync(); err != nil {
		return
	}
	if err := admits.Sync(); err != nil {
		return
	}
	flushed := 0
	for _, p := range pending {
		var err error
		if p.isBlob {
			err = store.PutBlob(p.key, p.blob)
		} else {
			err = store.Put(p.key, p.res, p.samples)
		}
		if err != nil {
			break
		}
		flushed++
	}
	s.mu.Lock()
	s.pending = s.pending[flushed:]
	remaining := len(s.pending)
	s.mu.Unlock()
	if flushed < len(pending) || remaining > 0 {
		return
	}
	store.ClearErr()
	admits.ClearErr()
	if s.degraded.CompareAndSwap(true, false) {
		s.mRecovered.Add(1)
		s.obs.degradeExit()
		s.obs.rec.Incident("degraded-recovered",
			map[string]string{"flushed": fmt.Sprintf("%d", flushed)})
	}
}

// complete counts the job and marks its trace before it publishes the
// terminal state (as Fail does): a client that sees the job done must
// also see it in /metrics, and its result-served span must follow the
// done mark.
func (s *Server) complete(j *Job, payload []byte, failedTable bool) {
	s.mCompleted.Add(1)
	if j.admittedNS > 0 {
		s.obs.hSubmitToResult.Observe(uint64(time.Now().UnixNano() - j.admittedNS))
	}
	if j.trace != nil {
		j.trace.Mark("done", nil)
	}
	s.mu.Lock()
	j.state = StateDone
	j.result = payload
	j.failedTable = failedTable
	s.mu.Unlock()
	j.feed.Finish()
}

// DrainStats reports what a drain left behind.
type DrainStats struct {
	// Finished is how many jobs completed or failed over the server's
	// lifetime (in-flight ones included — Drain waits for them).
	Finished int64
	// Queued is how many admitted jobs remain persisted for the next
	// process to re-admit.
	Queued int
}

// Drain stops the server gracefully: new submissions are rejected
// with ErrDraining, in-flight jobs run to completion (and their
// results persist), and still-queued jobs are left in the admission
// log for the next process. Blocks until every in-process slot has
// stopped.
func (s *Server) Drain() DrainStats {
	s.draining.Store(true)
	s.q.close()
	s.wg.Wait()
	return DrainStats{
		Finished: s.mCompleted.Value() + s.mFailed.Value(),
		Queued:   s.q.len(),
	}
}

// Draining reports whether Drain has been requested.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close releases the store and admission log and stops the recovery
// probe. Call after Drain; any latched store write error surfaces
// here.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.store != nil {
		if err := s.admits.Close(); err != nil {
			first = err
		}
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
		s.store, s.admits = nil, nil
	}
	return first
}

// Restored returns how many queued jobs the server re-admitted from a
// previous process's admission log.
func (s *Server) Restored() int64 { return s.mRestored.Value() }
