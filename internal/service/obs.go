package service

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// serverObs bundles the server's observability state: the metric
// registry behind GET /metrics (Prometheus text and the "obs" section
// of the JSON snapshot), the latency histograms on the job path, and
// the flight recorder behind GET /debug/trace.
type serverObs struct {
	reg *obs.Registry
	rec *obs.Recorder

	// Latency histograms record nanoseconds and export seconds.
	hQueueWait      *obs.Histogram // admission → run start
	hRun            *obs.Histogram // simulation wall time
	hStorePut       *obs.Histogram // durable result write
	hSubmitToResult *obs.Histogram // admission → job done/failed

	// High-water marks advance via Gauge.SetMax; the instantaneous
	// depth/in-flight values are GaugeFuncs over the live state.
	gQueueHWM    obs.Gauge
	gInflightHWM obs.Gauge

	// Degraded-time accounting: start is the unix-ns timestamp of the
	// current degraded episode (0 while healthy), accumNS the total of
	// finished episodes. degraded_seconds_total = accum + live episode.
	degradedStart atomic.Int64
	degradedNS    atomic.Int64
}

// newServerObs builds the registry for one server and registers the
// server's counters in it (the one store both /metrics renderings
// read); gauges read the live queue/pool state at scrape time.
func newServerObs(s *Server) *serverObs {
	o := &serverObs{reg: obs.NewRegistry(), rec: obs.NewRecorder(s.cfg.TraceCap)}
	r := o.reg
	s.mSubmitted = r.Counter("triaged_submitted_total", "fresh jobs admitted")
	s.mDeduped = r.Counter("triaged_deduped_total", "submissions joined onto an in-flight job")
	s.mStoreHits = r.Counter("triaged_store_hits_total", "submissions served from the warm result store")
	s.mRejectedFull = r.Counter("triaged_rejected_full_total", "submissions rejected with 429 (queue full)")
	s.mRejectedDrng = r.Counter("triaged_rejected_draining_total", "submissions rejected during drain")
	s.mRejectedDegr = r.Counter("triaged_rejected_degraded_total", "submissions rejected while degraded")
	s.mCompleted = r.Counter("triaged_completed_total", "jobs finished successfully")
	s.mFailed = r.Counter("triaged_failed_total", "jobs finished in failure")
	s.mRestored = r.Counter("triaged_restored_total", "queued jobs re-admitted at startup")
	s.mStoreErrors = r.Counter("triaged_store_errors_total", "store/admission-log write or sync failures")
	s.mDegradedIn = r.Counter("triaged_degraded_entered_total", "transitions into degraded mode")
	s.mRecovered = r.Counter("triaged_recovered_total", "recoveries out of degraded mode")
	s.mRunning = r.Gauge("triaged_inflight", "jobs currently running")
	r.CounterFunc("triaged_degraded_seconds_total", "total wall-clock seconds spent degraded",
		func() float64 { return o.degradedSeconds() })

	r.GaugeFunc("triaged_queue_depth", "jobs queued, not yet running",
		func() float64 { return float64(s.q.len()) })
	r.GaugeFunc("triaged_queue_cap", "admission queue capacity",
		func() float64 { return float64(s.cfg.QueueCap) })
	r.GaugeFunc("triaged_workers", "in-process job slots",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("triaged_degraded", "1 while the server is read-only degraded",
		func() float64 { return b2f(s.degraded.Load()) })
	r.GaugeFunc("triaged_draining", "1 once drain has been requested",
		func() float64 { return b2f(s.draining.Load()) })
	r.GaugeFunc("triaged_pending_results", "completed results awaiting durable write",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.pending))
		})
	r.GaugeFunc("triaged_store_len", "results in the content-addressed store",
		func() float64 { return float64(s.storeLen()) })
	r.GaugeFunc("triaged_uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(s.started).Seconds() })

	// The two simulation caches: the process-wide warm-snapshot cache
	// (single jobs sharing a warm prefix restore from it) and the
	// pool's figure-cell memo (figure jobs share finished cells).
	wc := sim.GlobalWarmCache()
	r.CounterFunc("triaged_warm_restores_total", "runs that restored a warm snapshot instead of simulating warmup (process-wide)",
		func() float64 { n, _, _ := wc.Stats(); return float64(n) })
	r.CounterFunc("triaged_warm_misses_total", "warm-snapshot lookups that did not restore: none held, or a key collision (process-wide)",
		func() float64 { _, n, _ := wc.Stats(); return float64(n) })
	r.CounterFunc("triaged_warm_stores_total", "warm snapshots stored (process-wide)",
		func() float64 { _, _, n := wc.Stats(); return float64(n) })
	r.GaugeFunc("triaged_warm_held_bytes", "approximate heap bytes of the warm snapshots held (process-wide)",
		func() float64 { return float64(wc.HeldBytes()) })
	r.CounterFunc("triaged_memo_hits_total", "figure cells served by the pool memo",
		func() float64 { h, _ := s.pool.MemoStats(); return float64(h) })
	r.CounterFunc("triaged_memo_simulated_total", "figure cells simulated into the pool memo",
		func() float64 { _, n := s.pool.MemoStats(); return float64(n) })

	o.hQueueWait = r.Histogram("triaged_queue_wait_seconds",
		"admission to run start", 1e-9)
	o.hRun = r.Histogram("triaged_run_seconds",
		"simulation wall time", 1e-9)
	o.hStorePut = r.Histogram("triaged_store_put_seconds",
		"durable result write", 1e-9)
	o.hSubmitToResult = r.Histogram("triaged_submit_to_result_seconds",
		"admission to job completion", 1e-9)

	// Register the HWM gauges by address so SetMax callers and the
	// scrape path share the same cell.
	r.GaugeFunc("triaged_queue_depth_hwm", "queue depth high-water mark",
		func() float64 { return float64(o.gQueueHWM.Value()) })
	r.GaugeFunc("triaged_inflight_hwm", "in-flight high-water mark",
		func() float64 { return float64(o.gInflightHWM.Value()) })
	return o
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// degradedSeconds returns the cumulative degraded time, live episode
// included.
func (o *serverObs) degradedSeconds() float64 {
	ns := o.degradedNS.Load()
	if st := o.degradedStart.Load(); st != 0 {
		ns += time.Now().UnixNano() - st
	}
	return float64(ns) / 1e9
}

// degradeEnter stamps the start of a degraded episode.
func (o *serverObs) degradeEnter() { o.degradedStart.Store(time.Now().UnixNano()) }

// degradeExit folds the finished episode into the accumulator.
func (o *serverObs) degradeExit() {
	if st := o.degradedStart.Swap(0); st != 0 {
		o.degradedNS.Add(time.Now().UnixNano() - st)
	}
}

// dumpFlight writes the whole flight recorder to w as one JSON
// document (the same shape GET /debug/trace serves). Called on
// degraded-mode entry so the trace timeline leading up to the fault is
// preserved even if the process dies before anyone scrapes it.
func (o *serverObs) dumpFlight(w io.Writer, cause string) {
	if w == nil {
		return
	}
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{
		"event":  "flight-recorder-dump",
		"cause":  cause,
		"traces": o.rec.DumpAll(),
	})
}

// Registry exposes the server's metric registry (Prometheus text via
// WritePrometheus, JSON via Snapshot).
func (s *Server) Registry() *obs.Registry { return s.obs.reg }

// FlightRecorder exposes the bounded trace ring behind /debug/trace.
func (s *Server) FlightRecorder() *obs.Recorder { return s.obs.rec }

// PoolProgress exposes the live pool counters (cmd/triaged wires them
// into the -debughttp expvar page).
func (s *Server) PoolProgress() *telemetry.PoolProgress { return s.prog }
