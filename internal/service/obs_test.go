package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsPrometheusExposition pins the /metrics content
// negotiation: JSON by default, Prometheus text when the Accept header
// or ?format= asks for it, and the text must be a valid exposition
// carrying the service counters and latency histograms.
func TestMetricsPrometheusExposition(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, sr := postJob(t, ts, tinySpec(1))
	waitDone(t, ts, sr.ID)

	// Default: JSON, histograms beside the counters.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default /metrics Content-Type = %q, want JSON", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"submitted", "completed", "queue_depth", "pool_runs", "degraded_seconds", "submit_to_result_seconds"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON /metrics missing key %q", key)
		}
	}
	hist := m["submit_to_result_seconds"].(map[string]any)
	if hist["count"].(float64) < 1 {
		t.Errorf("submit-to-result histogram recorded nothing: %v", hist)
	}

	// Prometheus via Accept (what a real scraper sends).
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Prometheus /metrics Content-Type = %q", ct)
	}
	buf := make([]byte, 1<<20)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	text := sb.String()
	if err := obs.ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics is not a valid Prometheus exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"triaged_submitted_total 1",
		"triaged_completed_total 1",
		"# TYPE triaged_run_seconds histogram",
		"triaged_queue_wait_seconds_count 1",
		"triaged_degraded_seconds_total 0",
		"triaged_queue_depth_hwm 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// ?format=prometheus works without an Accept header (curl).
	resp, err = ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("?format=prometheus Content-Type = %q", ct)
	}
	resp.Body.Close()
}

// TestTraceEndToEnd pins the span record of one completed job: the
// submit response carries a trace id, the trace is fetchable by both
// trace and job id, and its spans cover admission through result-
// served in causal order with monotonic timestamps, the run span
// naming the in-process worker.
func TestTraceEndToEnd(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := tinySpec(2)
	spec.Run.SampleEvery = 10_000 // arms the measure-start bridge
	_, sr := postJob(t, ts, spec)
	if sr.Trace == "" {
		t.Fatal("submit response carries no trace id")
	}
	waitDone(t, ts, sr.ID)
	// Fetch the result so the trace records result-served.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, id := range []string{sr.Trace, sr.ID} {
		resp, err := ts.Client().Get(ts.URL + "/debug/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/trace/%s = %d", id, resp.StatusCode)
		}
		var d obs.TraceDump
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d.TraceID != sr.Trace || d.JobID != sr.ID {
			t.Fatalf("trace ids %q/%q, want %q/%q", d.TraceID, d.JobID, sr.Trace, sr.ID)
		}
		if err := obs.ValidateTrace(d, "admit", "queue-wait", "run", "measure-start", "store-put", "done", "result-served"); err != nil {
			t.Error(err)
		}
		for _, sp := range d.Spans {
			if sp.Name == "run" && sp.Attrs["worker"] != "local" {
				t.Errorf("run span worker = %q, want local", sp.Attrs["worker"])
			}
		}
	}
}

// TestTraceDedupMark pins that a deduped submission returns the
// original trace id and stamps a second admit mark on it.
func TestTraceDedupMark(t *testing.T) {
	blockKey := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.Gate = func(key string) { <-blockKey }
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postJob(t, ts, tinySpec(3))
	_, second := postJob(t, ts, tinySpec(3))
	close(blockKey)
	if !second.Deduped {
		t.Fatal("second submission was not deduped")
	}
	if second.Trace != first.Trace {
		t.Fatalf("deduped trace id %q differs from original %q", second.Trace, first.Trace)
	}
	waitDone(t, ts, first.ID)
	tr, ok := srv.FlightRecorder().Get(first.Trace)
	if !ok {
		t.Fatal("trace missing from flight recorder")
	}
	admits := 0
	for _, sp := range tr.Dump().Spans {
		if sp.Name == "admit" {
			admits++
			if admits == 2 && sp.Attrs["disposition"] != "deduped" {
				t.Errorf("second admit disposition = %q", sp.Attrs["disposition"])
			}
		}
	}
	if admits != 2 {
		t.Errorf("trace has %d admit marks, want 2", admits)
	}
}

// TestDebugTraceUnknown404 pins the miss path.
func TestDebugTraceUnknown404(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/trace/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace returned %d, want 404", resp.StatusCode)
	}
}

// TestObsOverheadGuard bounds the observability cost per job: the full
// per-job instrumentation sequence (trace allocation, every span and
// mark the job path records, all four histogram observations, recorder
// insertion) must cost under 2% of even the tiniest real job's
// wall-clock time. The sequence is measured in a micro-loop; the job
// time is the served submit-to-result latency of the smallest spec the
// test suite uses.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector inflates instrumented-path timings; guard runs in the plain test pass")
	}
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	start := time.Now()
	_, sr := postJob(t, ts, tinySpec(4))
	waitDone(t, ts, sr.ID)
	jobTime := time.Since(start)

	rec := obs.NewRecorder(256)
	var hQueue, hRun, hPut, hTotal obs.Histogram
	perJob := func(i int) {
		tr := obs.NewTrace("t-guard", "j-guard")
		tr.Mark("admit", map[string]string{"disposition": "new", "kind": KindSingle})
		q := tr.Start("queue-wait")
		rec.Add(tr)
		q.End()
		hQueue.Observe(uint64(i))
		run := tr.Start("run")
		run.Annotate("kind", KindSingle)
		tr.Mark("measure-start", nil)
		run.End()
		hRun.Observe(uint64(i))
		p := tr.Start("store-put")
		p.End()
		hPut.Observe(uint64(i))
		hTotal.Observe(uint64(i))
		tr.Mark("done", nil)
		tr.Mark("result-served", nil)
	}
	const iters = 2000
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3; attempt++ {
		loopStart := time.Now()
		for i := 0; i < iters; i++ {
			perJob(i)
		}
		if d := time.Since(loopStart) / iters; d < best {
			best = d
		}
	}
	// 2% of the measured tiny-job time, plus absolute slack so a
	// lightning-fast warm machine cannot fail on scheduler jitter.
	budget := jobTime/50 + 200*time.Microsecond
	if best > budget {
		t.Errorf("per-job observability cost %v exceeds budget %v (2%% of %v job)",
			best, budget, jobTime)
	}
}

// TestMetricsExportCaches pins the cache counters in the registry: a
// figure job whose cells an earlier figure job already simulated is
// served by the pool memo, and a single job sharing an earlier job's
// warm prefix restores its warm snapshot. The warm-cache counters are
// process-wide, so they are checked as deltas.
func TestMetricsExportCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	metric := func(name string) float64 {
		t.Helper()
		v, ok := srv.Registry().Snapshot()[name].(float64)
		if !ok {
			t.Fatalf("registry has no metric %s", name)
		}
		return v
	}
	run := func(spec JobSpec) {
		t.Helper()
		_, sr := postJob(t, ts, spec)
		if st := waitDone(t, ts, sr.ID); st.State != StateDone || st.Failed {
			t.Fatalf("job ended %+v", st)
		}
	}

	scale := &FigureScale{Warmup: 10_000, Measure: 30_000, MultiWarmup: 10_000, MultiMeasure: 20_000, Mixes: 1}
	run(JobSpec{Kind: KindFigure, Figure: "fig05", Scale: scale})
	simulated := metric("memo_simulated")
	if simulated == 0 || metric("memo_hits") != 0 {
		t.Fatalf("after fig05: memo simulated %v cells with %v hits, want some and none",
			simulated, metric("memo_hits"))
	}
	// Fig06 runs exactly fig05's grid.
	run(JobSpec{Kind: KindFigure, Figure: "fig06", Scale: scale})
	if got := metric("memo_simulated"); got != simulated {
		t.Errorf("fig06 simulated %v more cells, want 0", got-simulated)
	}
	if got := metric("memo_hits"); got < simulated {
		t.Errorf("memo hits %v, want at least fig06's %v cells", got, simulated)
	}

	restores, stores := metric("warm_restores"), metric("warm_stores")
	parent := tinySpec(5)
	parent.Run.Warmup = 20_000
	run(parent)
	if metric("warm_stores") <= stores || metric("warm_held_bytes") <= 0 {
		t.Error("a single job with a warmup stored no warm snapshot")
	}
	restored := metric("warm_restored_instructions")
	child := tinySpec(5)
	child.Run.Warmup, child.Run.Measure = 20_000, 40_000
	run(child)
	if metric("warm_restores") <= restores {
		t.Error("a single job sharing a warm prefix restored no snapshot")
	}
	// The child resumed where the parent's run stopped.
	if got, want := metric("warm_restored_instructions")-restored, float64(parent.Run.Warmup+parent.Run.Measure); got != want {
		t.Errorf("the restore skipped %v instructions, want the parent's %v", got, want)
	}
}
