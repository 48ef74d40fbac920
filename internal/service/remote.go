package service

import (
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Remote execution surface: when Config.RemoteExec is set the server
// admits, dedups, and persists jobs exactly as before, but no local
// worker goroutines run. An external dispatcher — the cluster
// coordinator in internal/cluster — pulls queued jobs with Take,
// marks them running on a named worker with BeginRemote, feeds live
// progress through the job's feed, and finishes them with
// CompleteRemote/FailRemote. Requeue returns a job whose worker died
// (lease expired) to the queue; because a job stays in the admission
// log until its result is durable, neither a worker death nor a
// coordinator restart can lose an acknowledged job.

// Take blocks until a queued job is available and removes it from the
// queue. Returns nil once the server is draining (queue closed); the
// still-queued jobs stay persisted for the next process.
func (s *Server) Take() *Job { return s.q.pop() }

// BeginRemote marks a taken job running on the named worker: state,
// in-flight accounting, queue-wait histogram, and a "run" span
// annotated with the executing worker.
func (s *Server) BeginRemote(j *Job, worker string) {
	s.mu.Lock()
	j.state = StateRunning
	if j.trace != nil {
		j.remoteSpan = j.trace.Start("run")
		j.remoteSpan.Annotate("kind", j.spec.Kind)
		j.remoteSpan.Annotate("worker", worker)
	}
	s.mu.Unlock()
	s.mRunning.Add(1)
	s.obs.gInflightHWM.SetMax(s.mRunning.Value())
	j.queueSpan.End()
	if j.admittedNS > 0 {
		s.obs.hQueueWait.Observe(uint64(time.Now().UnixNano() - j.admittedNS))
	}
}

// CompleteRemote persists an uploaded result envelope and completes
// the job, reusing the exact local encode/persist path so a
// cluster-run job's stored bytes match a single-node run's. The
// payload served to clients is re-marshaled from the decoded envelope
// (not the worker's raw bytes), so identity holds no matter how the
// worker formatted its upload. Idempotent: a duplicate upload (e.g. a
// lease expired, the job was requeued, and the original worker's
// result arrived late) reports false and changes nothing — first
// result wins, nothing durable is overwritten or re-simulated.
func (s *Server) CompleteRemote(j *Job, env JobResult) bool {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		s.mu.Unlock()
		return false
	}
	wasRunning := j.state == StateRunning
	span := j.remoteSpan
	s.mu.Unlock()

	switch env.Kind {
	case KindFigure:
		failed := env.Table != nil && env.Table.Failed
		if failed {
			span.Annotate("failed_table", "true")
		}
		span.End()
		payload := marshalEnvelope(env)
		// A failed table (error rows) completes the job but is never
		// stored — same rule as the local runFigure path.
		if !failed {
			s.persistTraced(j, pendingResult{key: j.key, isBlob: true, blob: payload})
		}
		s.complete(j, payload, failed)
	default:
		span.End()
		var res = *env.Result
		s.persistTraced(j, pendingResult{key: j.key, res: res, samples: []byte(env.SamplesJSONL)})
		s.complete(j, marshalEnvelope(JobResult{Kind: KindSingle, Result: &res, SamplesJSONL: env.SamplesJSONL}), false)
	}
	if wasRunning {
		s.mRunning.Add(-1)
	}
	return true
}

// FailRemote records a worker-reported execution failure. Idempotent
// like CompleteRemote.
func (s *Server) FailRemote(j *Job, msg string) bool {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		s.mu.Unlock()
		return false
	}
	wasRunning := j.state == StateRunning
	span := j.remoteSpan
	s.mu.Unlock()
	span.Annotate("error", msg)
	span.End()
	s.fail(j, msg)
	if wasRunning {
		s.mRunning.Add(-1)
	}
	return true
}

// Requeue returns a running remote job to the queue (its worker's
// lease expired). The job keeps its identity and admission-log entry;
// a fresh queue-wait span opens so the trace shows the second wait.
// No-op unless the job is currently running.
func (s *Server) Requeue(j *Job, reason string) bool {
	s.mu.Lock()
	if j.state != StateRunning {
		s.mu.Unlock()
		return false
	}
	j.state = StateQueued
	j.remoteSpan.Annotate("requeued", reason)
	span := j.remoteSpan
	tr := j.trace
	if tr != nil {
		j.queueSpan = tr.Start("queue-wait")
	}
	s.mu.Unlock()
	span.End()
	if tr != nil {
		tr.Mark("requeue", map[string]string{"reason": reason})
	}
	s.mRunning.Add(-1)
	s.obs.gQueueHWM.SetMax(int64(s.q.push(j)))
	return true
}

// HasDurable reports whether the content-addressed store already
// holds a result for the key — the cluster-wide dedup check a
// dispatcher makes before assigning work.
func (s *Server) HasDurable(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store != nil && s.store.Has(key)
}

// CompleteFromStore finishes a queued/running job straight from the
// warm store (the result became durable through another path — e.g. a
// late upload for a deduplicated key). Reports whether the store had
// it.
func (s *Server) CompleteFromStore(j *Job) bool {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		s.mu.Unlock()
		return true
	}
	store, spec, key := s.store, j.spec, j.key
	wasRunning := j.state == StateRunning
	s.mu.Unlock()
	if store == nil {
		return false
	}
	var payload []byte
	switch spec.Kind {
	case KindFigure:
		blob, ok := store.GetBlob(key)
		if !ok {
			return false
		}
		payload = blob
	default:
		res, samples, ok := store.Get(key)
		if !ok {
			return false
		}
		payload = marshalEnvelope(JobResult{Kind: KindSingle, Result: &res, SamplesJSONL: string(samples)})
	}
	s.mu.Lock()
	j.cached = true
	s.mu.Unlock()
	s.complete(j, payload, false)
	if wasRunning {
		s.mRunning.Add(-1)
	}
	return true
}

// Fingerprint returns the server's machine-config fingerprint — the
// identity the content-addressed store is keyed under. A coordinator
// uses it to verify that an uploaded result was produced under the
// same configuration before persisting it.
func (s *Server) Fingerprint() string { return s.fp }

// Key returns the job's canonical content key.
func (j *Job) Key() string { return j.key }

// Spec returns a copy of the job's normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Feed returns the job's live telemetry fan-out; a dispatcher relays
// worker-streamed progress and samples into it so SSE consumers see a
// cluster-run job exactly like a local one.
func (j *Job) Feed() *telemetry.JobFeed { return j.feed }

// Trace returns the job's span record (nil when tracing is off), so a
// dispatcher can add cluster marks (assign, lease-expired, requeue).
func (j *Job) Trace() *obs.Trace { return j.trace }

// StateOf snapshots the job's lifecycle state.
func (s *Server) StateOf(j *Job) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

// QueueLen reports the number of queued (not yet dispatched) jobs.
func (s *Server) QueueLen() int { return s.q.len() }

// Gate returns the configured test gate (nil in production); the
// cluster worker calls it before simulating, mirroring the local
// worker path, so chaos tests hold cluster workers at the same
// deterministic point.
func (s *Server) Gate() func(key string) { return s.cfg.Gate }

// VFS returns the filesystem durable state is written through, so the
// coordinator's assignment log shares the server's fault-injection
// stack in tests.
func (s *Server) VFS() vfs.FS { return s.fsys }

// StoreDirPath returns the store directory (queue.jsonl, runs.jsonl —
// and, under a coordinator, assign.jsonl).
func (s *Server) StoreDirPath() string { return s.cfg.StoreDir }
