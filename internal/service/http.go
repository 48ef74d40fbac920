package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
)

// maxSubmitBytes bounds a submission body. A RunSpec is a few hundred
// bytes; anything near the cap is malformed or malicious, and the
// limit keeps a misbehaving client from buffering unbounded JSON into
// the decoder.
const maxSubmitBytes = 1 << 20

// Error codes carried in the error envelope, so clients can branch on
// semantics instead of parsing prose.
const (
	codeBadSpec   = "bad_spec"
	codeQueueFull = "queue_full"
	codeDraining  = "draining"
	codeDegraded  = "degraded"
	codeTooLarge  = "body_too_large"
	codeNotFound  = "not_found"
	codeNotReady  = "not_ready"
	codeJobFailed = "job_failed"
	codeInternal  = "internal"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs             submit a JobSpec    → SubmitResponse
//	GET  /v1/jobs             list jobs           → []JobStatus
//	GET  /v1/jobs/{id}        job status          → JobStatus
//	GET  /v1/jobs/{id}/result finished result     → JobResult
//	GET  /v1/jobs/{id}/events live progress       → SSE stream
//	GET  /metrics             service counters    → JSON, or Prometheus
//	                          text when the Accept header asks for
//	                          text/plain or openmetrics (what a
//	                          Prometheus scraper sends) or the query
//	                          says ?format=prometheus
//	GET  /debug/trace         flight recorder     → all held traces
//	GET  /debug/trace/{id}    one trace           → by trace or job id
//	GET  /healthz             liveness            → 200 "ok", 503 when degraded
//
// Submission maps dispositions and errors to status codes: 201 fresh
// admission, 200 dedup or warm-store hit, 400 invalid spec (error
// envelope carries code "bad_spec"), 413 oversized body, 429 queue
// full (with Retry-After), 503 draining or degraded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTraceAll)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpError is the error wire format: human-readable prose plus a
// stable machine-readable code.
type httpError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, httpError{Error: msg, Code: code})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, codeBadSpec, "decoding job spec: "+err.Error())
		return
	}
	j, disp, err := s.Submit(spec)
	if err != nil {
		var bad *BadSpecError
		switch {
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, codeBadSpec, err.Error())
		case errors.Is(err, ErrQueueFull):
			// Backpressure, not failure: tell the client when to retry.
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, codeQueueFull, err.Error())
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, codeDraining, err.Error())
		case errors.Is(err, ErrDegraded):
			// Degraded is transient: the recovery probe may bring the
			// store back, so give clients a retry hint like 429 does.
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, codeDegraded, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	st := s.Status(j)
	resp := SubmitResponse{
		ID:      j.ID(),
		Key:     st.Key,
		State:   st.State,
		Cached:  disp == DispCached,
		Deduped: disp == DispDeduped,
		Trace:   j.TraceID(),
	}
	code := http.StatusCreated
	if disp != DispNew {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

// jobFor resolves {id}, writing a 404 when unknown.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job "+r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, s.Status(j))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := s.Status(j)
	switch st.State {
	case StateDone:
		payload, _ := s.Result(j)
		// The first successful fetch closes the job's trace: the span
		// sequence ends at result-served, not at completion, so the
		// trace covers the client-visible latency.
		if j.trace != nil {
			j.servedOnce.Do(func() { j.trace.Mark("result-served", nil) })
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	case StateFailed:
		writeError(w, http.StatusConflict, codeJobFailed, "job failed: "+st.Error)
	default:
		// Not done yet: poll again shortly (or follow /events instead).
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusAccepted, codeNotReady, "job is "+string(st.State))
	}
}

// wantsPrometheus decides the /metrics render format. JSON is the
// default (the original wire format, kept for existing clients and
// tests); Prometheus text is opt-in via Accept or ?format=.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obs.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.obs.reg.Snapshot())
}

// handleTrace serves one trace from the flight recorder, addressable
// by trace id or job id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.obs.rec.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound,
			"no trace for "+id+" (evicted from the flight recorder, or never admitted)")
		return
	}
	writeJSON(w, http.StatusOK, t.Dump())
}

// handleTraceAll dumps the whole flight recorder, oldest first.
func (s *Server) handleTraceAll(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.obs.rec.DumpAll())
}

// handleHealthz is the liveness/readiness probe: 200 while healthy,
// 503 with the cause while the store is failing — load balancers stop
// routing submissions, and the degraded flag is scrapeable without
// parsing /metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Degraded() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"cause":  s.DegradedCause(),
		})
		return
	}
	w.Write([]byte("ok\n"))
}
