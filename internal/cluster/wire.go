package cluster

import (
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Wire shapes of the coordinator API (all JSON over HTTP):
//
//	POST /cluster/v1/register           RegisterRequest  → RegisterResponse
//	POST /cluster/v1/poll               PollRequest      → PollResponse | 204
//	POST /cluster/v1/heartbeat          HeartbeatRequest → HeartbeatResponse | 410
//	POST /cluster/v1/jobs/{id}/events   EventBatch       → 200
//	POST /cluster/v1/jobs/{id}/result   ResultUpload     → ResultResponse
//	POST /cluster/v1/workers/drain      DrainRequest     → DrainResponse
//	GET  /cluster/v1/status                              → StatusView
//	GET  /cluster/v1/traces/{id}                         → raw TRC2 bytes
//
// Jobs are addressed by their content-derived service ids, which are
// stable across coordinator restarts — a worker that outlives a
// coordinator crash uploads into the re-admitted job and nothing is
// simulated twice.
//
// Every mutating RPC is idempotent, because the network between a
// worker and the coordinator is allowed to refuse, reset, truncate,
// duplicate, and half-deliver (see internal/netfault): registration
// dedups on a client token, event batches carry a per-lease sequence
// number, and result uploads are first-write-wins on content-derived
// job ids.

// RegisterRequest announces a worker.
type RegisterRequest struct {
	// Name is the worker's self-chosen display name (hostname:pid by
	// default). Two workers may share a name; the coordinator-issued
	// WorkerID is the identity.
	Name string `json:"name"`
	// Slots is how many jobs the worker runs concurrently.
	Slots int `json:"slots"`
	// Token is the worker's idempotency key: a duplicate-delivered or
	// retried register with the same token returns the already-issued
	// WorkerID instead of minting a phantom worker.
	Token string `json:"token,omitempty"`
}

// RegisterResponse carries the worker's coordinator-issued identity
// and the lease discipline it must follow.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is how long a job assignment stays valid without a
	// heartbeat; the worker should heartbeat at a small fraction of it.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// PollRequest asks for one job (long-poll: the coordinator holds the
// request until work arrives or its poll window lapses).
type PollRequest struct {
	WorkerID string `json:"worker_id"`
}

// PollResponse assigns one job, or tells a draining worker to exit.
type PollResponse struct {
	JobID string          `json:"job_id,omitempty"`
	Key   string          `json:"key,omitempty"`
	Spec  service.JobSpec `json:"spec,omitempty"`
	// Drain tells the worker the coordinator is rotating it out: finish
	// in-flight jobs, stop polling, exit cleanly.
	Drain bool `json:"drain,omitempty"`
}

// HeartbeatRequest renews the worker's leases. Jobs lists every job id
// the worker is still executing.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Jobs     []string `json:"jobs,omitempty"`
}

// HeartbeatResponse acknowledges the renewal. Cancelled lists job ids
// the worker should stop working on (completed elsewhere or requeued
// past it); the worker may abandon them without uploading.
type HeartbeatResponse struct {
	Cancelled []string `json:"cancelled,omitempty"`
}

// EventBatch streams live progress for one job: the worker's absolute
// retired-instruction count plus any new interval samples. The
// coordinator folds both into the job's feed, so /v1/jobs/{id}/events
// SSE consumers see a cluster job exactly like a local one.
type EventBatch struct {
	WorkerID     string `json:"worker_id"`
	Instructions uint64 `json:"instructions"`
	// Seq numbers this worker's batches for the job from 1; the
	// coordinator drops batches at or below the last sequence it folded,
	// so a duplicate-delivered batch cannot double its samples into the
	// feed.
	Seq     int64              `json:"seq,omitempty"`
	Samples []telemetry.Sample `json:"samples,omitempty"`
}

// ResultUpload finishes one job: either a result envelope (the exact
// JobResult shape the service stores and serves) or an execution
// error.
type ResultUpload struct {
	WorkerID string             `json:"worker_id"`
	Result   *service.JobResult `json:"result,omitempty"`
	Error    string             `json:"error,omitempty"`
	// Fingerprint is the worker's machine-config fingerprint; the
	// coordinator rejects results produced under a different
	// configuration than the store is keyed under.
	Fingerprint string `json:"fingerprint,omitempty"`
	// PayloadSHA256 is the hex SHA-256 of the worker's canonical
	// envelope encoding. The coordinator re-encodes what it decoded and
	// compares, so a payload corrupted in flight (or by a buggy worker
	// serializer) is rejected before anything is fsynced.
	PayloadSHA256 string `json:"payload_sha256,omitempty"`
}

// ResultResponse reports how the upload was disposed.
type ResultResponse struct {
	// Duplicate is set when the job already had a result (first upload
	// wins); the upload changed nothing.
	Duplicate bool `json:"duplicate,omitempty"`
	// Rejected is set when verification failed: nothing was persisted,
	// the job was requeued (if this worker held its lease), and the
	// worker's health score took the penalty. Retrying the same bytes is
	// pointless.
	Rejected bool   `json:"rejected,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// DrainRequest asks the coordinator to rotate workers out of the
// fleet. Name matches worker display names (and ids).
type DrainRequest struct {
	Name string `json:"name"`
}

// DrainResponse lists the worker ids now draining.
type DrainResponse struct {
	Drained []string `json:"drained"`
}

// StatusView is the cluster view triagectl renders: registered
// workers, live leases, and queue depth.
type StatusView struct {
	Workers []WorkerView `json:"workers"`
	Leases  []LeaseView  `json:"leases"`
	Queued  int          `json:"queued"`
	// Assigned/Requeued/Expired/Rejected are lifetime counters.
	Assigned int64 `json:"assigned"`
	Requeued int64 `json:"requeued"`
	Expired  int64 `json:"expired"`
	// Hedged is always 0: the coordinator never dispatches a job
	// speculatively. A job runs again only when its lease expires or its
	// upload is rejected, and Requeued counts those. The field stays for
	// readers that still decode it.
	Hedged int64 `json:"hedged"`
	// Rejected counts uploads that failed verification.
	Rejected int64 `json:"rejected"`
}

// WorkerView is one registered worker.
type WorkerView struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Slots    int    `json:"slots"`
	Inflight int    `json:"inflight"`
	// LastSeenMillis is milliseconds since the worker's last
	// register/poll/heartbeat/upload.
	LastSeenMillis int64 `json:"last_seen_ms"`
	// Live is false once the worker has gone a full lease TTL without
	// contact.
	Live bool `json:"live"`
	// Health is the worker's decayed fault score (0 = clean); at or
	// above the coordinator's threshold the worker is quarantined.
	Health float64 `json:"health"`
	// Quarantined workers receive no assignments until their score
	// decays below the threshold.
	Quarantined bool `json:"quarantined,omitempty"`
	// Draining workers finish their leases and exit; they are never
	// assigned new work.
	Draining bool `json:"draining,omitempty"`
}

// LeaseView is one in-flight cell.
type LeaseView struct {
	JobID  string `json:"job_id"`
	Key    string `json:"key"`
	Worker string `json:"worker"`
	// ExpiresInMillis is how long until the lease lapses without a
	// heartbeat (negative: already expired, sweep pending).
	ExpiresInMillis int64 `json:"expires_in_ms"`
	// AgeMillis is time since assignment.
	AgeMillis int64 `json:"age_ms"`
}
