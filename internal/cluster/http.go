package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/experiments"
)

// maxUploadBytes bounds worker uploads. A figure table or a sampled
// series is well under this; the cap keeps a misbehaving peer from
// buffering unbounded JSON.
const maxUploadBytes = 64 << 20

// Handler returns the coordinator API, falling through to next (the
// service's client-facing handler) for every other path.
func (c *Coordinator) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/v1/poll", c.handlePoll)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("POST /cluster/v1/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("POST /cluster/v1/workers/drain", c.handleDrain)
	mux.HandleFunc("GET /cluster/v1/status", c.handleStatus)
	mux.HandleFunc("GET /cluster/v1/traces/{id}", c.handleTraceFetch)
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func clusterError(w http.ResponseWriter, status int, msg string) {
	clusterJSON(w, status, map[string]string{"error": msg})
}

// decodeBody decodes a bounded JSON body, reporting false after
// writing the error response.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			clusterError(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			clusterError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		}
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req, 1<<16) {
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	ws := c.register(req.Name, req.Slots, req.Token)
	clusterJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:       ws.id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	})
}

// handlePoll long-polls for one job: it blocks until the dispatcher
// hands one over, the poll window lapses (204), or the client goes
// away. A job received but not deliverable (the response write fails)
// is covered by lease expiry — the worker never heartbeats it, so the
// sweep requeues it.
func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decodeBody(w, r, &req, 1<<16) {
		return
	}
	ws := c.touch(req.WorkerID)
	if ws == nil {
		clusterError(w, http.StatusGone, "unknown worker "+req.WorkerID+" (re-register)")
		return
	}
	if c.isDraining(ws) {
		clusterJSON(w, http.StatusOK, PollResponse{Drain: true})
		return
	}
	deadline := time.NewTimer(c.cfg.PollWindow)
	defer deadline.Stop()
	if !c.dispatchable(ws, time.Now()) {
		// Quarantined: hold the poll for the window (so the worker does
		// not hot-spin) and send it away empty; decay re-admits it.
		select {
		case <-deadline.C:
		case <-c.stopc:
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	for {
		select {
		case j, ok := <-c.dispatch:
			if !ok {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			if !c.assign(j, ws) {
				continue // finished while it waited for this poll
			}
			clusterJSON(w, http.StatusOK, PollResponse{JobID: j.ID(), Key: j.Key(), Spec: j.Spec()})
			return
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-c.stopc:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// isDraining reads the worker's drain flag under the lock.
func (c *Coordinator) isDraining(ws *workerState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ws.draining
}

// handleDrain rotates workers out of the fleet by display name (or
// id): they get no new work and their next poll tells them to exit.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !decodeBody(w, r, &req, 1<<16) {
		return
	}
	if req.Name == "" {
		clusterError(w, http.StatusBadRequest, "drain needs a worker name")
		return
	}
	ids := c.DrainWorkers(req.Name)
	if len(ids) == 0 {
		clusterError(w, http.StatusNotFound, "no worker named "+req.Name)
		return
	}
	clusterJSON(w, http.StatusOK, DrainResponse{Drained: ids})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req, 1<<20) {
		return
	}
	ws := c.touch(req.WorkerID)
	if ws == nil {
		clusterError(w, http.StatusGone, "unknown worker "+req.WorkerID+" (re-register)")
		return
	}
	clusterJSON(w, http.StatusOK, HeartbeatResponse{Cancelled: c.heartbeat(ws, req.Jobs)})
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	var batch EventBatch
	if !decodeBody(w, r, &batch, maxUploadBytes) {
		return
	}
	id := r.PathValue("id")
	if _, ok := c.srv.Lookup(id); !ok {
		clusterError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	c.touch(batch.WorkerID)
	c.events(id, batch)
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var up ResultUpload
	if !decodeBody(w, r, &up, maxUploadBytes) {
		return
	}
	j, ok := c.srv.Lookup(r.PathValue("id"))
	if !ok {
		clusterError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	if up.Result == nil && up.Error == "" {
		clusterError(w, http.StatusBadRequest, "upload carries neither result nor error")
		return
	}
	if up.Result != nil && up.Result.Kind == "" {
		clusterError(w, http.StatusBadRequest, "result envelope missing kind")
		return
	}
	c.touch(up.WorkerID)
	clusterJSON(w, http.StatusOK, c.finish(j, up))
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	clusterJSON(w, http.StatusOK, c.Status())
}

// handleTraceFetch serves a corpus trace by content hash to workers
// that lack it — the shared artifact store. The bytes on disk are the
// content-addressed TRC2 container; the worker re-verifies the hash
// on ingest, so a corrupted transfer cannot poison its corpus.
func (c *Coordinator) handleTraceFetch(w http.ResponseWriter, r *http.Request) {
	corpus := experiments.TraceCorpus()
	if corpus == nil {
		clusterError(w, http.StatusNotFound, "coordinator has no trace corpus configured (-corpus)")
		return
	}
	id := r.PathValue("id")
	if !corpus.Has(id) {
		clusterError(w, http.StatusNotFound, "trace "+id+" not in corpus")
		return
	}
	path, err := corpus.Path(id)
	if err != nil {
		clusterError(w, http.StatusBadRequest, err.Error())
		return
	}
	f, err := os.Open(path)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}
