package service

import (
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Job lifecycle: every admitted job that needs running goes through
// the same calls, whoever executes it. A runner pulls it with Take,
// marks it running on a named worker with Begin ("local" for the
// server's own slots, the worker's name and id under the cluster
// coordinator in internal/cluster), turns its spec into a result with
// Execute, and finishes it with Complete or Fail. Requeue returns a
// job to the queue when its remote worker's lease expired or its
// upload was rejected; because a job stays in the admission log until
// its result is durable, neither a worker death nor a coordinator
// restart can lose an acknowledged job. Leases, heartbeats and upload
// verification are the coordinator's: they guard a network and a
// foreign process, which an in-process slot does not have.

// Take blocks until a queued job needs running and removes it from the
// queue. A job that finished meanwhile (a late upload completed it
// while it waited) is dropped, and one whose key became durable after
// it queued (an identical cell finished elsewhere, a pre-loaded store)
// completes from the store here instead of being handed out. Returns
// nil once the server is draining (queue closed); the still-queued
// jobs stay persisted for the next process.
func (s *Server) Take() *Job {
	for {
		j := s.q.pop()
		if j == nil || !s.settledFromStore(j) {
			return j
		}
	}
}

// settledFromStore reports whether a taken job needs no run: it is
// already terminal, or its durable result completes it now as cached.
func (s *Server) settledFromStore(j *Job) bool {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		s.mu.Unlock()
		return true
	}
	payload, ok := s.storedPayload(j.key, j.spec.Kind)
	j.cached = ok
	s.mu.Unlock()
	if ok {
		s.complete(j, payload, false)
	}
	return ok
}

// Begin marks a taken job running on the named worker: state,
// in-flight accounting, the queue-wait histogram, and a "run" span
// annotated with the job kind and the worker. It reports false, and
// changes nothing, when the job finished while it waited for a runner
// (a late upload from an expired lease completed it); the caller drops
// it.
func (s *Server) Begin(j *Job, worker string) bool {
	now := time.Now().UnixNano()
	s.mu.Lock()
	if j.state != StateQueued {
		s.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.begunNS = now
	j.queueSpan.End()
	if j.trace != nil {
		j.runSpan = j.trace.Start("run")
		j.runSpan.Annotate("kind", j.spec.Kind)
		j.runSpan.Annotate("worker", worker)
	}
	s.mu.Unlock()
	s.mRunning.Add(1)
	s.obs.gInflightHWM.SetMax(s.mRunning.Value())
	if j.admittedNS > 0 {
		s.obs.hQueueWait.Observe(uint64(now - j.admittedNS))
	}
	return true
}

// endRun closes the running phase of a job about to finish: it reports
// false when the job is already terminal (a duplicate finish);
// otherwise it releases the in-flight slot and records the run time if
// the job was running, and returns the run span.
func (s *Server) endRun(j *Job) (obs.SpanRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed:
		return obs.SpanRef{}, false
	case StateRunning:
		s.mRunning.Add(-1)
		s.obs.hRun.Observe(uint64(time.Now().UnixNano() - j.begunNS))
	}
	return j.runSpan, true
}

// Complete persists a job's result envelope and marks it done. The
// payload served to clients is re-encoded from the envelope's fields
// for the job's kind (not taken from a worker's raw bytes), so an
// uploaded result and an in-process one store the same bytes. A figure
// table with error rows completes the job but is never stored: a
// transient failure must not be served forever. Idempotent: for a job
// already terminal (a late upload after a requeue, a requeued copy
// that lost the race) it reports false and changes nothing — first
// result wins, nothing durable is overwritten.
func (s *Server) Complete(j *Job, env JobResult) bool {
	span, ok := s.endRun(j)
	if !ok {
		return false
	}
	if j.spec.Kind == KindFigure {
		failed := env.Table.Failed
		if failed {
			span.Annotate("failed_table", "true")
		}
		span.End()
		payload := marshalEnvelope(JobResult{Kind: KindFigure, Table: env.Table})
		if !failed {
			s.persistTraced(j, pendingResult{key: j.key, isBlob: true, blob: payload})
		}
		s.complete(j, payload, failed)
		return true
	}
	span.End()
	s.persistTraced(j, pendingResult{key: j.key, res: *env.Result, samples: []byte(env.SamplesJSONL)})
	s.complete(j, marshalEnvelope(JobResult{Kind: KindSingle, Result: env.Result, SamplesJSONL: env.SamplesJSONL}), false)
	return true
}

// Fail records a job's execution failure; nothing is stored, and a
// resubmission is admitted fresh. Like Complete it counts the job and
// marks its trace before publishing the terminal state, and it is
// idempotent.
func (s *Server) Fail(j *Job, msg string) bool {
	span, ok := s.endRun(j)
	if !ok {
		return false
	}
	span.Annotate("error", msg)
	span.End()
	s.mFailed.Add(1)
	if j.admittedNS > 0 {
		s.obs.hSubmitToResult.Observe(uint64(time.Now().UnixNano() - j.admittedNS))
	}
	if j.trace != nil {
		j.trace.Mark("failed", map[string]string{"error": msg})
	}
	s.mu.Lock()
	j.state = StateFailed
	j.errMsg = msg
	s.mu.Unlock()
	j.feed.Finish()
	return true
}

// Requeue returns a running remote job to the queue (its worker's
// lease expired or its upload was rejected). The job keeps its
// identity and admission-log entry; a fresh queue-wait span opens so
// the trace shows the second wait. No-op unless the job is running.
func (s *Server) Requeue(j *Job, reason string) bool {
	s.mu.Lock()
	if j.state != StateRunning {
		s.mu.Unlock()
		return false
	}
	j.state = StateQueued
	j.runSpan.Annotate("requeued", reason)
	span := j.runSpan
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
// holds a result for the key.
func (s *Server) HasDurable(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store != nil && s.store.Has(key)
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

// Feed returns the job's live telemetry fan-out (what SSE consumers
// read).
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

// VFS returns the filesystem durable state is written through, so the
// coordinator's assignment log shares the server's fault-injection
// stack in tests.
func (s *Server) VFS() vfs.FS { return s.fsys }

// StoreDirPath returns the store directory (queue.jsonl, runs.jsonl —
// and, under a coordinator, assign.jsonl).
func (s *Server) StoreDirPath() string { return s.cfg.StoreDir }
