// Package cluster splits the simulation service across machines: a
// coordinator embedded in triaged (behind -cluster) owns admission,
// dedup, and the content-addressed result store, while any number of
// triageworker processes register over HTTP, hold heartbeat leases,
// long-poll for jobs, stream progress/sample events back, and upload
// results. A cluster job goes through the service's one job
// lifecycle, exactly like a job on triaged's in-process slots: the
// dispatcher Takes it, assignment Begins it on the worker, the worker
// runs service.Execute, and its upload Completes or Fails it. The
// store stays the single source of truth, so no cell with the same
// config fingerprint is ever simulated twice cluster-wide; a worker
// that dies mid-job loses its lease and the job requeues; a
// coordinator that dies re-admits queued and leased jobs from the
// admission log (queue.jsonl) — job ids are derived from content
// keys, so a surviving worker's upload still lands.
//
// The protocol assumes a hostile network and imperfect workers (see
// internal/netfault for the fault model): uploads are verified against
// the config fingerprint and a canonical payload hash before anything
// is persisted, and workers accumulate a decaying health score and are
// quarantined out of dispatch when it crosses the threshold. A job runs
// on a second worker only when its lease expired or its upload was
// rejected; both requeue it through Server.Requeue.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/vfs"
)

// assignFile is the coordinator's assignment audit log, next to the
// store's queue.jsonl. One JSON line per assign/complete/fail/
// expire/requeue/reject event, written through the server's vfs
// (so chaos tests exercise it under injected faults). Durability of
// jobs does not depend on it — that is queue.jsonl's contract — but it
// records which worker ran what, survives restarts, and is cheap to
// grep.
const assignFile = "assign.jsonl"

// Health penalties. The score decays exponentially (half-life
// Config.HealthHalfLife); at or above Config.HealthThreshold the
// worker is quarantined out of dispatch and re-admitted by decay
// alone, so the quarantine lasts HalfLife·log2(score/threshold) — a
// penalty must overshoot the threshold to quarantine for real time.
const (
	healthVerifyReject = 6.0 // corrupted/mismatched upload: quarantined for a full half-life
	healthExecFailure  = 1.5 // worker-reported execution error
	healthLeaseExpiry  = 1.0 // heartbeat flap: lease lapsed and the job requeued
)

// Config sizes a Coordinator.
type Config struct {
	// Server is the underlying service. Its in-process slots
	// (service.Config.Workers) would Take from the same queue as the
	// dispatcher; triaged -cluster runs it with none, so every job goes
	// to a worker. Required.
	Server *service.Server
	// LeaseTTL is how long a job assignment survives without a
	// heartbeat before the sweep requeues it. Default 10s.
	LeaseTTL time.Duration
	// SweepEvery paces the lease-expiry sweep. Default LeaseTTL/4.
	SweepEvery time.Duration
	// PollWindow bounds how long a worker's poll blocks waiting for
	// work before returning 204. Default 25s.
	PollWindow time.Duration
	// HealthThreshold is the decayed fault score at which a worker is
	// quarantined. Default 3 (one verification reject, or three lesser
	// faults in quick succession).
	HealthThreshold float64
	// HealthHalfLife is the fault-score decay half-life; it doubles as
	// the re-admission clock for quarantined workers. Default 30s.
	HealthHalfLife time.Duration
}

// Coordinator dispatches the server's queue to registered workers.
type Coordinator struct {
	cfg  Config
	srv  *service.Server
	fsys vfs.FS

	mu        sync.Mutex
	workers   map[string]*workerState
	tokens    map[string]string // register idempotency token → worker id
	leases    map[string]*lease // current assignment, by job id
	jobAcc    map[string]int    // samples accepted into each job's feed
	gauges    map[string]bool   // per-worker gauge names already registered
	assignLog vfs.File
	workerSeq int

	dispatch chan *service.Job
	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup

	mAssigned    atomic.Int64
	mRequeued    atomic.Int64
	mExpired     atomic.Int64
	mResults     atomic.Int64
	mDupedUp     atomic.Int64 // duplicate uploads (first result won)
	mRejected    atomic.Int64 // uploads that failed verification
	mQuarantines atomic.Int64 // quarantine entries (lifetime)
	mLogErrors   atomic.Int64
}

// workerState is one registered worker.
type workerState struct {
	id       string
	name     string
	token    string
	slots    int
	lastSeen time.Time
	inflight map[string]bool // job ids under lease
	// health is the decaying fault score as of healthAt; read it
	// through decayedHealthLocked, never directly.
	health   float64
	healthAt time.Time
	draining bool
}

// lease is one assignment.
type lease struct {
	job     *service.Job
	worker  string // worker id
	started time.Time
	expires time.Time
	// lastInstr is the worker's last absolute instruction count, so
	// event batches fold into the feed as deltas.
	lastInstr uint64
	// lastSeq is the highest event-batch sequence folded under this
	// lease; duplicate-delivered batches arrive at or below it and are
	// dropped.
	lastSeq int64
	// samplesSeen counts samples received under this lease; together
	// with the job's accepted count it dedups re-streamed samples
	// after a requeue.
	samplesSeen int
}

// New starts a coordinator over a server: the dispatcher pulls queued
// jobs (Take completes any already durable cluster-wide), the sweeper
// requeues expired leases, and cluster metrics register on the
// server's registry. Call Stop (after draining the server) to shut
// down.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: Config.Server is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	if cfg.PollWindow <= 0 {
		cfg.PollWindow = 25 * time.Second
	}
	if cfg.HealthThreshold <= 0 {
		cfg.HealthThreshold = 3
	}
	if cfg.HealthHalfLife <= 0 {
		cfg.HealthHalfLife = 30 * time.Second
	}
	c := &Coordinator{
		cfg:      cfg,
		srv:      cfg.Server,
		fsys:     cfg.Server.VFS(),
		workers:  make(map[string]*workerState),
		tokens:   make(map[string]string),
		leases:   make(map[string]*lease),
		jobAcc:   make(map[string]int),
		gauges:   make(map[string]bool),
		dispatch: make(chan *service.Job),
		stopc:    make(chan struct{}),
	}
	path := filepath.Join(cfg.Server.StoreDirPath(), assignFile)
	f, err := c.fsys.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening assignment log: %w", err)
	}
	c.assignLog = f
	c.registerMetrics()
	c.wg.Add(2)
	go c.dispatchLoop()
	go c.sweepLoop()
	return c, nil
}

// Stop shuts the coordinator down: dispatcher and sweeper exit and
// the assignment log closes. Drain the server first — the dispatcher
// unblocks from the queue when Drain closes it. Leased jobs keep
// their admission-log entries, so nothing is lost across a restart.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stopc) })
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.assignLog != nil {
		c.assignLog.Close()
		c.assignLog = nil
	}
}

// dispatchLoop feeds the queue to polling workers. Take has already
// completed any job whose key is durable cluster-wide.
func (c *Coordinator) dispatchLoop() {
	defer c.wg.Done()
	for {
		j := c.srv.Take()
		if j == nil {
			close(c.dispatch)
			return
		}
		select {
		case c.dispatch <- j:
		case <-c.stopc:
			// Shutting down with a job in hand: it stays admitted in
			// queue.jsonl and re-admits on the next start.
			return
		}
	}
}

// sweepLoop requeues jobs whose lease lapsed without a heartbeat.
func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-t.C:
			c.sweep(time.Now())
		}
	}
}

// sweep expires lapsed leases, requeueing their jobs in a
// deterministic order: lease start time, then job id — never the map's
// iteration order.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	var lapsed []*lease
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		if ws := c.workers[l.worker]; ws != nil {
			delete(ws.inflight, id)
		}
		lapsed = append(lapsed, l)
		delete(c.leases, id)
	}
	c.mu.Unlock()

	// Simultaneous expiries requeue in a stable order regardless of Go
	// map iteration: oldest lease first, job id as the tiebreak.
	sort.Slice(lapsed, func(i, k int) bool {
		if !lapsed[i].started.Equal(lapsed[k].started) {
			return lapsed[i].started.Before(lapsed[k].started)
		}
		return lapsed[i].job.ID() < lapsed[k].job.ID()
	})
	for _, l := range lapsed {
		c.mExpired.Add(1)
		c.penalize(l.worker, healthLeaseExpiry, now)
		if tr := l.job.Trace(); tr != nil {
			tr.Mark("lease-expired", map[string]string{"worker": l.worker})
		}
		c.logEvent("expire", l.job, l.worker)
		c.requeue(l.job, l.worker, "lease expired on worker "+l.worker)
	}
}

// logEvent appends one assignment-log line (best effort: the audit
// trail must not take the cluster down when the disk is faulting —
// job durability is queue.jsonl's contract, not this file's).
func (c *Coordinator) logEvent(event string, j *service.Job, worker string) {
	line := fmt.Sprintf("{\"ts_ms\":%d,\"event\":%q,\"job\":%q,\"key\":%q,\"worker\":%q}\n",
		time.Now().UnixMilli(), event, j.ID(), j.Key(), worker)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.assignLog == nil {
		return
	}
	if _, err := c.assignLog.Write([]byte(line)); err != nil {
		c.mLogErrors.Add(1)
		return
	}
	if err := c.assignLog.Sync(); err != nil {
		c.mLogErrors.Add(1)
	}
}

// register admits a worker and returns its state. A re-delivered or
// retried register with a token the coordinator has already seen
// returns the existing identity instead of minting a phantom worker.
func (c *Coordinator) register(name string, slots int, token string) *workerState {
	if slots < 1 {
		slots = 1
	}
	c.mu.Lock()
	if token != "" {
		if id, ok := c.tokens[token]; ok {
			if ws := c.workers[id]; ws != nil {
				ws.lastSeen = time.Now()
				c.mu.Unlock()
				return ws
			}
		}
	}
	c.workerSeq++
	ws := &workerState{
		id:       fmt.Sprintf("w%03d", c.workerSeq),
		name:     name,
		token:    token,
		slots:    slots,
		lastSeen: time.Now(),
		inflight: make(map[string]bool),
	}
	c.workers[ws.id] = ws
	if token != "" {
		c.tokens[token] = ws.id
	}
	c.mu.Unlock()
	c.registerWorkerGauge(name)
	return ws
}

// touch refreshes a worker's liveness, returning nil for unknown ids
// (a coordinator restart wiped the table — the worker re-registers).
func (c *Coordinator) touch(id string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[id]
	if ws != nil {
		ws.lastSeen = time.Now()
	}
	return ws
}

// decayedHealthLocked reads a worker's fault score at now, applying
// exponential decay (half-life cfg.HealthHalfLife) since it was last
// written.
func (c *Coordinator) decayedHealthLocked(ws *workerState, now time.Time) float64 {
	if ws.health == 0 {
		return 0
	}
	elapsed := now.Sub(ws.healthAt)
	if elapsed <= 0 {
		return ws.health
	}
	h := ws.health * math.Exp2(-float64(elapsed)/float64(c.cfg.HealthHalfLife))
	if h < 0.01 {
		return 0
	}
	return h
}

// quarantinedLocked reports whether the worker's decayed score is at
// or above the threshold — if so it receives no assignments until
// decay re-admits it.
func (c *Coordinator) quarantinedLocked(ws *workerState, now time.Time) bool {
	return c.decayedHealthLocked(ws, now) >= c.cfg.HealthThreshold
}

// penalize adds fault points to a worker's decayed score and counts a
// quarantine entry if this penalty crossed the threshold.
func (c *Coordinator) penalize(workerID string, pts float64, now time.Time) {
	c.mu.Lock()
	ws := c.workers[workerID]
	if ws == nil {
		c.mu.Unlock()
		return
	}
	wasQuarantined := c.quarantinedLocked(ws, now)
	ws.health = c.decayedHealthLocked(ws, now) + pts
	ws.healthAt = now
	nowQuarantined := c.quarantinedLocked(ws, now)
	c.mu.Unlock()
	if !wasQuarantined && nowQuarantined {
		c.mQuarantines.Add(1)
	}
}

// dispatchable reports whether a worker may receive new assignments:
// not draining, not quarantined.
func (c *Coordinator) dispatchable(ws *workerState, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !ws.draining && !c.quarantinedLocked(ws, now)
}

// DrainWorkers marks every worker whose name (or id) matches as
// draining: no new assignments, leased jobs run to completion, and the
// worker's next poll tells it to exit. Returns the draining ids.
func (c *Coordinator) DrainWorkers(name string) []string {
	c.mu.Lock()
	var ids []string
	for _, ws := range c.workers {
		if ws.name == name || ws.id == name {
			ws.draining = true
			ids = append(ids, ws.id)
		}
	}
	c.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// assign begins a job on a worker and leases it there. It reports
// false when the job finished while it waited for a poll (Begin
// refused it); nothing is leased then.
func (c *Coordinator) assign(j *service.Job, ws *workerState) bool {
	if !c.srv.Begin(j, ws.name+"/"+ws.id) {
		return false
	}
	now := time.Now()
	c.mu.Lock()
	c.leases[j.ID()] = &lease{
		job:     j,
		worker:  ws.id,
		started: now,
		expires: now.Add(c.cfg.LeaseTTL),
	}
	ws.inflight[j.ID()] = true
	c.mu.Unlock()
	c.mAssigned.Add(1)
	c.logEvent("assign", j, ws.id)
	return true
}

// heartbeat renews the worker's leases; returns job ids it should
// abandon (done elsewhere, or requeued past it).
func (c *Coordinator) heartbeat(ws *workerState, jobs []string) (cancelled []string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range jobs {
		if l, ok := c.leases[id]; ok && l.worker == ws.id {
			st := c.srv.StateOf(l.job)
			if st == service.StateDone || st == service.StateFailed {
				delete(c.leases, id)
				delete(ws.inflight, id)
				cancelled = append(cancelled, id)
				continue
			}
			l.expires = now.Add(c.cfg.LeaseTTL)
			continue
		}
		cancelled = append(cancelled, id)
	}
	return cancelled
}

// events folds a worker's progress batch into the job (its feed and
// trace), the sink an in-process run streams into directly.
// Progress is accepted only from the current lease holder (an expired
// holder's progress would double-count); batches dedup on their
// sequence number, so a duplicate-delivered batch folds once, and
// samples additionally dedup against what the feed already absorbed,
// so a requeued job's re-streamed prefix does not double up for SSE
// consumers.
func (c *Coordinator) events(jobID string, batch EventBatch) {
	c.mu.Lock()
	l, ok := c.leases[jobID]
	if !ok || l.worker != batch.WorkerID {
		c.mu.Unlock()
		return
	}
	if batch.Seq != 0 {
		if batch.Seq <= l.lastSeq {
			c.mu.Unlock()
			return
		}
		l.lastSeq = batch.Seq
	}
	if batch.Instructions > l.lastInstr {
		l.job.Add(batch.Instructions - l.lastInstr)
		l.lastInstr = batch.Instructions
	}
	accepted := c.jobAcc[jobID]
	for i, smp := range batch.Samples {
		if l.samplesSeen+i >= accepted {
			l.job.OnSample(smp)
			c.jobAcc[jobID] = l.samplesSeen + i + 1
		}
	}
	l.samplesSeen += len(batch.Samples)
	c.mu.Unlock()
}

// verifyUpload checks a result envelope before anything is persisted:
// the envelope must be structurally whole for the job's kind, produced
// under the coordinator's config fingerprint, and its canonical
// re-encoding must hash to what the worker claims — so a payload
// corrupted in flight (or by a broken serializer) never reaches fsync.
func (c *Coordinator) verifyUpload(j *service.Job, up ResultUpload) error {
	env := up.Result
	if kind := j.Spec().Kind; env.Kind != kind {
		return fmt.Errorf("envelope kind %q does not match job kind %q", env.Kind, kind)
	}
	switch env.Kind {
	case service.KindFigure:
		if env.Table == nil {
			return errors.New("figure envelope carries no table")
		}
	default:
		if env.Result == nil {
			return errors.New("single envelope carries no result")
		}
	}
	if up.Fingerprint != c.srv.Fingerprint() {
		return fmt.Errorf("config fingerprint %.12q does not match the store's %.12q",
			up.Fingerprint, c.srv.Fingerprint())
	}
	canonical, err := json.Marshal(*env)
	if err != nil {
		return fmt.Errorf("re-encoding envelope: %w", err)
	}
	sum := sha256.Sum256(canonical)
	if got := hex.EncodeToString(sum[:]); got != up.PayloadSHA256 {
		return fmt.Errorf("payload hash mismatch: upload claims %.12s, canonical re-encoding is %.12s",
			up.PayloadSHA256, got)
	}
	return nil
}

// finish disposes an uploaded result or error. Verification runs
// before anything touches the store; a rejected upload requeues the
// job and penalizes the worker. First verified result wins; anything
// after is a duplicate and changes nothing.
func (c *Coordinator) finish(j *service.Job, up ResultUpload) ResultResponse {
	now := time.Now()
	c.mu.Lock()
	l := c.leases[j.ID()]
	holder := l != nil && l.worker == up.WorkerID
	c.mu.Unlock()

	if up.Error == "" {
		if err := c.verifyUpload(j, up); err != nil {
			c.mRejected.Add(1)
			c.logEvent("reject", j, up.WorkerID)
			if tr := j.Trace(); tr != nil {
				tr.Mark("upload-rejected", map[string]string{"worker": up.WorkerID, "reason": err.Error()})
			}
			c.penalize(up.WorkerID, healthVerifyReject, now)
			c.releaseUploader(j, up.WorkerID, holder)
			if holder {
				c.requeue(j, up.WorkerID, "upload rejected: "+err.Error())
			}
			return ResultResponse{Rejected: true, Reason: err.Error()}
		}
	}

	if up.Error != "" {
		// Execution errors are honored only from the lease holder: a late
		// error from a worker whose lease expired must not kill a job
		// another worker is running.
		c.releaseUploader(j, up.WorkerID, holder)
		if !holder {
			c.mDupedUp.Add(1)
			return ResultResponse{Duplicate: true}
		}
		c.penalize(up.WorkerID, healthExecFailure, now)
		c.logEvent("fail", j, up.WorkerID)
		if !c.srv.Fail(j, up.Error) {
			c.mDupedUp.Add(1)
			return ResultResponse{Duplicate: true}
		}
		return ResultResponse{}
	}

	// Results are honored from anyone — they are deterministic,
	// verified, and content-addressed, so a late upload from an expired
	// lease saves the requeued copy from re-simulating.
	if !c.srv.Complete(j, *up.Result) {
		c.releaseUploader(j, up.WorkerID, holder)
		c.mDupedUp.Add(1)
		return ResultResponse{Duplicate: true}
	}
	c.mResults.Add(1)
	c.logEvent("complete", j, up.WorkerID)
	// The job is done: clear its lease, whoever holds it; a holder that
	// did not upload learns via heartbeat cancellation.
	c.mu.Lock()
	if cur := c.leases[j.ID()]; cur != nil {
		if ws := c.workers[cur.worker]; ws != nil {
			delete(ws.inflight, j.ID())
		}
		delete(c.leases, j.ID())
	}
	delete(c.jobAcc, j.ID())
	c.mu.Unlock()
	return ResultResponse{}
}

// releaseUploader drops the uploading worker's in-flight entry after a
// terminal upload, and its lease when it holds one; another worker's
// lease stays intact.
func (c *Coordinator) releaseUploader(j *service.Job, workerID string, holder bool) {
	c.mu.Lock()
	if holder {
		delete(c.leases, j.ID())
	}
	if ws := c.workers[workerID]; ws != nil {
		delete(ws.inflight, j.ID())
	}
	c.mu.Unlock()
}

// requeue returns a job whose copy went bad (lease expired, upload
// rejected) to the queue, counting and logging it when the server took
// it back.
func (c *Coordinator) requeue(j *service.Job, worker, reason string) {
	if c.srv.Requeue(j, reason) {
		c.mRequeued.Add(1)
		c.logEvent("requeue", j, worker)
	}
}

// Status snapshots the cluster for triagectl.
func (c *Coordinator) Status() StatusView {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	v := StatusView{
		Workers:  make([]WorkerView, 0, len(c.workers)),
		Leases:   make([]LeaseView, 0, len(c.leases)),
		Queued:   c.srv.QueueLen(),
		Assigned: c.mAssigned.Load(),
		Requeued: c.mRequeued.Load(),
		Expired:  c.mExpired.Load(),
		Rejected: c.mRejected.Load(),
	}
	for _, ws := range c.workers {
		v.Workers = append(v.Workers, WorkerView{
			ID:             ws.id,
			Name:           ws.name,
			Slots:          ws.slots,
			Inflight:       len(ws.inflight),
			LastSeenMillis: now.Sub(ws.lastSeen).Milliseconds(),
			Live:           now.Sub(ws.lastSeen) <= c.cfg.LeaseTTL,
			Health:         c.decayedHealthLocked(ws, now),
			Quarantined:    c.quarantinedLocked(ws, now),
			Draining:       ws.draining,
		})
	}
	sort.Slice(v.Workers, func(i, k int) bool { return v.Workers[i].ID < v.Workers[k].ID })
	for id, l := range c.leases {
		v.Leases = append(v.Leases, LeaseView{
			JobID:           id,
			Key:             l.job.Key(),
			Worker:          l.worker,
			ExpiresInMillis: l.expires.Sub(now).Milliseconds(),
			AgeMillis:       now.Sub(l.started).Milliseconds(),
		})
	}
	sort.Slice(v.Leases, func(i, k int) bool { return v.Leases[i].JobID < v.Leases[k].JobID })
	return v
}

// registerMetrics adds the cluster series to the server's registry
// (scraped through the same /metrics the service already serves).
func (c *Coordinator) registerMetrics() {
	r := c.srv.Registry()
	r.GaugeFunc("triaged_cluster_workers", "registered workers", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	r.GaugeFunc("triaged_cluster_leases", "jobs under an active worker lease", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.leases))
	})
	r.GaugeFunc("triaged_cluster_quarantined", "workers currently quarantined out of dispatch", func() float64 {
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, ws := range c.workers {
			if c.quarantinedLocked(ws, now) {
				n++
			}
		}
		return float64(n)
	})
	r.CounterFunc("triaged_cluster_assigned_total", "jobs leased to workers",
		func() float64 { return float64(c.mAssigned.Load()) })
	r.CounterFunc("triaged_cluster_requeued_total", "jobs requeued after a lease expired or an upload was rejected",
		func() float64 { return float64(c.mRequeued.Load()) })
	r.CounterFunc("triaged_cluster_lease_expired_total", "leases lapsed without a heartbeat",
		func() float64 { return float64(c.mExpired.Load()) })
	r.CounterFunc("triaged_cluster_results_total", "results uploaded by workers",
		func() float64 { return float64(c.mResults.Load()) })
	r.CounterFunc("triaged_cluster_duplicate_uploads_total", "uploads for jobs that already had a result",
		func() float64 { return float64(c.mDupedUp.Load()) })
	r.CounterFunc("triaged_cluster_upload_rejected_total", "uploads that failed verification (nothing persisted)",
		func() float64 { return float64(c.mRejected.Load()) })
	r.CounterFunc("triaged_cluster_quarantines_total", "times a worker crossed into quarantine",
		func() float64 { return float64(c.mQuarantines.Load()) })
	r.CounterFunc("triaged_cluster_assignlog_errors_total", "assignment-log write failures (audit only)",
		func() float64 { return float64(c.mLogErrors.Load()) })
}

// registerWorkerGauge adds a per-worker in-flight gauge the first time
// a name registers (re-registrations reuse it; the closure counts all
// live workers carrying the name).
func (c *Coordinator) registerWorkerGauge(name string) {
	gname := "triaged_worker_inflight_" + sanitizeMetricName(name)
	c.mu.Lock()
	if c.gauges[gname] {
		c.mu.Unlock()
		return
	}
	c.gauges[gname] = true
	c.mu.Unlock()
	c.srv.Registry().GaugeFunc(gname, "jobs in flight on worker "+name, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, ws := range c.workers {
			if ws.name == name {
				n += len(ws.inflight)
			}
		}
		return float64(n)
	})
}

// sanitizeMetricName maps an arbitrary worker name onto the Prometheus
// metric-name alphabet.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "unnamed"
	}
	return b.String()
}
