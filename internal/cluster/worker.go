package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// WorkerConfig sizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Required.
	Coordinator string
	// Name is the worker's display name. Default "worker".
	Name string
	// Slots is how many jobs run concurrently. Default 1.
	Slots int
	// PoolWorkers sizes the shared simulation pool a figure job fans
	// out over. Default GOMAXPROCS.
	PoolWorkers int
	// Corpus, when non-nil, is the worker's local trace corpus: traces
	// a job names that are missing locally are fetched from the
	// coordinator by hash and verified on ingest. Nil skips fetching
	// (the process-global corpus is assumed to resolve them).
	Corpus *trace.Corpus
	// Deadline and Stall arm the per-job watchdog, like the service's.
	Deadline time.Duration
	Stall    time.Duration
	// Gate mirrors service.Config.Gate: called right before a job
	// executes. Test hook; leave nil in production.
	Gate func(key string)
	// ProgressEvery paces progress/sample event batches to the
	// coordinator. Default 250ms.
	ProgressEvery time.Duration
	// PollRetry is the base back-off after a failed RPC (coordinator
	// unreachable); retries grow exponentially from it, capped, with
	// ±25% seeded jitter so a partitioned fleet does not reconnect in
	// lockstep. Default 500ms.
	PollRetry time.Duration
	// RPCTimeout is the per-attempt deadline on short RPCs (register,
	// heartbeat, events, result upload) — a half-open connection fails
	// the attempt instead of wedging the worker until the client's
	// overall timeout. Long-polls keep the client timeout. Default 15s.
	RPCTimeout time.Duration
	// JitterSeed seeds the retry-jitter stream (and the idempotency
	// token). 0 derives a unique seed per worker, which is what
	// production wants; tests pin it for reproducible schedules.
	JitterSeed int64
	// Client is the HTTP client. Default: http.Client with a 5-minute
	// timeout (long-polls ride inside it). Chaos tests hand in a client
	// whose Transport is a netfault.Transport.
	Client *http.Client
	// Log receives worker lifecycle lines; nil discards them.
	Log io.Writer
}

// Worker pulls jobs from a coordinator and executes them on a local
// pool, streaming progress back and uploading results. Run blocks
// until the context cancels and every in-flight job has finished.
type Worker struct {
	cfg    WorkerConfig
	pool   *experiments.Pool
	client *http.Client
	retry  *Backoff
	token  string // register idempotency key
	fp     string // machine-config fingerprint stamped on uploads

	mu       sync.Mutex
	id       string
	leaseTTL time.Duration
	inflight map[string]bool

	// killed simulates abrupt process death for chaos tests: every
	// future poll, heartbeat, event post, and result upload is
	// suppressed, exactly as if the process had been kill -9'd (any
	// running simulation's outcome is discarded).
	killed atomic.Bool

	// draining flips when the coordinator rotates this worker out:
	// slots stop polling and Run returns once in-flight jobs finish.
	draining atomic.Bool

	jobsDone atomic.Int64
}

// NewWorker validates the config and prepares a worker; call Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: WorkerConfig.Coordinator is required")
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if !strings.Contains(cfg.Coordinator, "://") {
		cfg.Coordinator = "http://" + cfg.Coordinator
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.PoolWorkers < 1 {
		cfg.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 250 * time.Millisecond
	}
	if cfg.PollRetry <= 0 {
		cfg.PollRetry = 500 * time.Millisecond
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 15 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = time.Now().UnixNano() ^ int64(os.Getpid())<<32
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	retry := NewBackoff(cfg.JitterSeed, cfg.PollRetry, 32*cfg.PollRetry)
	return &Worker{
		cfg:      cfg,
		pool:     experiments.NewPool(cfg.PoolWorkers),
		client:   client,
		retry:    retry,
		token:    fmt.Sprintf("%s-%016x", cfg.Name, uint64(cfg.JitterSeed)),
		fp:       experiments.ConfigFingerprint(config.Default(1)),
		inflight: make(map[string]bool),
	}, nil
}

// Draining reports whether the coordinator has told this worker to
// rotate out.
func (w *Worker) Draining() bool { return w.draining.Load() }

// JobsDone reports how many jobs this worker has finished uploading.
func (w *Worker) JobsDone() int64 { return w.jobsDone.Load() }

// Kill hard-stops the worker mid-flight (chaos hook): all further
// communication with the coordinator is suppressed, so its leases
// lapse and its jobs requeue — indistinguishable, from the
// coordinator's side, from the process dying.
func (w *Worker) Kill() { w.killed.Store(true) }

// Run registers with the coordinator and serves jobs until ctx
// cancels (graceful: slots stop polling, and in-flight jobs finish and
// upload) or Kill.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	go w.heartbeatLoop(hbCtx)
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		fmt.Fprintf(w.cfg.Log, "triageworker[%s]: "+format+"\n", append([]any{w.cfg.Name}, args...)...)
	}
}

// post sends one JSON request; out may be nil. A killed worker's
// posts vanish without reaching the wire. A positive timeout puts a
// per-attempt deadline on this call — retried RPCs each get a fresh
// one, so a half-open connection costs one attempt, not the client's
// whole timeout; pass 0 for long-polls, which ride the client timeout.
func (w *Worker) post(ctx context.Context, path string, in, out any, timeout time.Duration) (int, error) {
	if w.killed.Load() {
		return 0, errors.New("worker killed")
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if w.killed.Load() {
		return 0, errors.New("worker killed")
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}

// register obtains a worker id, retrying with jittered exponential
// backoff while the coordinator is unreachable — after a partition
// heals, a fleet's registers spread out instead of stampeding. The
// token makes a duplicate-delivered register idempotent.
func (w *Worker) register(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		var resp RegisterResponse
		code, err := w.post(ctx, "/cluster/v1/register",
			RegisterRequest{Name: w.cfg.Name, Slots: w.cfg.Slots, Token: w.token}, &resp, w.cfg.RPCTimeout)
		if err == nil && code == http.StatusOK {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.leaseTTL = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			w.mu.Unlock()
			w.logf("registered as %s (lease %v)", resp.WorkerID, time.Duration(resp.LeaseTTLMillis)*time.Millisecond)
			return nil
		}
		if w.killed.Load() {
			return errors.New("worker killed")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.retry.Delay(attempt)):
		}
	}
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// heartbeatLoop renews leases for every in-flight job at roughly a
// third of the TTL, jittered ±20% so a fleet's heartbeats (and the
// re-registration stampede after a coordinator restart) decorrelate
// while still landing at least twice per TTL. A 410 (coordinator
// restarted, worker table wiped) re-registers; in-flight jobs keep
// running and upload by job id, which survives the restart because ids
// derive from content keys.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		ttl := w.leaseTTL
		w.mu.Unlock()
		every := ttl / 3
		if every <= 0 {
			every = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(w.retry.Jitter(every, 0.2)):
		}
		if w.killed.Load() {
			return
		}
		w.mu.Lock()
		jobs := make([]string, 0, len(w.inflight))
		for id := range w.inflight {
			jobs = append(jobs, id)
		}
		w.mu.Unlock()
		code, err := w.post(ctx, "/cluster/v1/heartbeat",
			HeartbeatRequest{WorkerID: w.workerID(), Jobs: jobs}, nil, w.cfg.RPCTimeout)
		if err == nil && code == http.StatusGone {
			if err := w.register(ctx); err != nil {
				return
			}
		}
	}
}

// slotLoop polls for jobs and executes them until ctx cancels, the
// coordinator tells the worker to drain, or Kill. Failed polls back
// off exponentially with jitter; a successful round trip resets the
// schedule.
func (w *Worker) slotLoop(ctx context.Context) {
	failures := 0
	for {
		if ctx.Err() != nil || w.killed.Load() || w.draining.Load() {
			return
		}
		var a PollResponse
		code, err := w.post(ctx, "/cluster/v1/poll", PollRequest{WorkerID: w.workerID()}, &a, 0)
		switch {
		case err != nil:
			if ctx.Err() != nil || w.killed.Load() {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(w.retry.Delay(failures)):
			}
			failures++
			continue
		case code == http.StatusGone:
			failures = 0
			if w.register(ctx) != nil {
				return
			}
			continue
		case code != http.StatusOK:
			failures = 0
			continue // 204: no work inside the poll window
		}
		failures = 0
		if a.Drain {
			w.draining.Store(true)
			w.logf("draining: coordinator rotated this worker out")
			return
		}
		w.execute(ctx, a)
	}
}

// execute runs one assigned job and uploads its outcome. The job's own
// RPCs (trace fetches, event batches, the upload) ignore Run's
// cancellation, so a stopped worker still delivers the job it holds;
// they stay bounded by RPCTimeout and the upload's retry cap, and Kill
// still silences them.
func (w *Worker) execute(ctx context.Context, a PollResponse) {
	ctx = context.WithoutCancel(ctx)
	w.mu.Lock()
	w.inflight[a.JobID] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.inflight, a.JobID)
		w.mu.Unlock()
	}()

	if err := w.ensureTraces(ctx, a.Spec); err != nil {
		w.upload(ctx, a.JobID, ResultUpload{WorkerID: w.workerID(), Error: err.Error()})
		return
	}
	if gate := w.cfg.Gate; gate != nil {
		gate(a.Key)
	}
	poster := &eventPoster{w: w, jobID: a.JobID, stop: make(chan struct{}), done: make(chan struct{})}
	go poster.run(ctx)
	env, err := service.Execute(w.pool, a.Key, a.Spec, w.cfg.Deadline, w.cfg.Stall, poster)
	close(poster.stop)
	<-poster.done
	if w.killed.Load() {
		return
	}
	up := ResultUpload{WorkerID: w.workerID()}
	if err != nil {
		up.Error = err.Error()
	} else {
		up.Result = &env
		up.Fingerprint = w.fp
		// Hash the canonical envelope encoding; the coordinator
		// re-encodes what it decoded and compares, so any corruption
		// between here and its fsync is caught before persistence.
		if canonical, err := json.Marshal(env); err == nil {
			sum := sha256.Sum256(canonical)
			up.PayloadSHA256 = hex.EncodeToString(sum[:])
		}
	}
	w.upload(ctx, a.JobID, up)
}

// upload posts the job outcome, retrying transient failures with
// jittered backoff: losing a finished result to a connection blip
// would force a pointless re-simulation, and a one-way partition
// (result delivered, acknowledgment lost) resolves as a Duplicate on
// the retry — the upload is idempotent by job id. A verification
// reject is terminal: retrying the same bytes cannot succeed, and the
// coordinator has already requeued the job.
func (w *Worker) upload(ctx context.Context, jobID string, up ResultUpload) {
	var resp ResultResponse
	for attempt := 0; attempt < 8; attempt++ {
		resp = ResultResponse{}
		code, err := w.post(ctx, "/cluster/v1/jobs/"+jobID+"/result", up, &resp, w.cfg.RPCTimeout)
		if err == nil && (code == http.StatusOK || code == http.StatusNotFound) {
			if code == http.StatusOK {
				if resp.Rejected {
					w.logf("upload for %s rejected by coordinator: %s", jobID, resp.Reason)
					return
				}
				w.jobsDone.Add(1)
			}
			return
		}
		if w.killed.Load() {
			return
		}
		time.Sleep(w.retry.Delay(attempt))
	}
	w.logf("upload for %s abandoned after retries (lease expiry will requeue it)", jobID)
}

// eventPoster is a worker job's service.Sink: it batches progress and
// samples to the coordinator on a ticker, off the simulation's hot
// path — the sim feeds an atomic counter and an in-memory sample
// buffer, and a flusher goroutine does the HTTP.
type eventPoster struct {
	w      *Worker
	jobID  string
	instr  atomic.Uint64
	mu     sync.Mutex
	buffer []telemetry.Sample
	sent   uint64
	seq    int64 // batch sequence: the coordinator's duplicate filter
	stop   chan struct{}
	done   chan struct{}
}

// Add implements telemetry.ProgressSink.
func (p *eventPoster) Add(n uint64) { p.instr.Add(n) }

// OnSample buffers one interval sample for the next flush.
func (p *eventPoster) OnSample(s telemetry.Sample) {
	p.mu.Lock()
	p.buffer = append(p.buffer, s)
	p.mu.Unlock()
}

// OnCancel does nothing: a watchdog abort reaches the coordinator as
// the job's failed upload.
func (p *eventPoster) OnCancel(string) {}

func (p *eventPoster) flush(ctx context.Context) {
	instr := p.instr.Load()
	p.mu.Lock()
	samples := p.buffer
	p.buffer = nil
	p.mu.Unlock()
	if instr == p.sent && len(samples) == 0 {
		return
	}
	p.sent = instr
	p.seq++
	p.w.post(ctx, "/cluster/v1/jobs/"+p.jobID+"/events",
		EventBatch{WorkerID: p.w.workerID(), Instructions: instr, Seq: p.seq, Samples: samples},
		nil, p.w.cfg.RPCTimeout)
}

func (p *eventPoster) run(ctx context.Context) {
	defer close(p.done)
	t := time.NewTicker(p.w.cfg.ProgressEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			p.flush(ctx)
			return
		case <-t.C:
			p.flush(ctx)
		}
	}
}

// ensureTraces fetches, by content hash, every corpus trace the spec
// names that the worker's local corpus lacks. The ingest re-hashes
// the streamed records, so the stored entry is correct by
// construction regardless of what the wire delivered.
func (w *Worker) ensureTraces(ctx context.Context, spec service.JobSpec) error {
	if w.cfg.Corpus == nil || spec.Run == nil {
		return nil
	}
	var ids []string
	if spec.Run.Trace != "" {
		ids = append(ids, spec.Run.Trace)
	}
	for _, entry := range spec.Run.Mix {
		if strings.HasPrefix(entry, "sha256:") {
			ids = append(ids, entry)
		}
	}
	for _, id := range ids {
		if w.cfg.Corpus.Has(id) {
			continue
		}
		if err := w.fetchTrace(ctx, id); err != nil {
			return err
		}
		w.logf("fetched trace %s from coordinator", id)
	}
	return nil
}

func (w *Worker) fetchTrace(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+"/cluster/v1/traces/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("fetching trace %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching trace %s: coordinator said %s", id, resp.Status)
	}
	got, err := w.cfg.Corpus.IngestFrom(resp.Body, id)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("fetching trace %s: stored as %s", id, got)
	}
	return nil
}
