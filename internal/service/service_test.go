package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tinySpec is a fast single-run job; vary seed to get distinct keys.
func tinySpec(seed uint64) JobSpec {
	return JobSpec{
		Kind: KindSingle,
		Run: &experiments.RunSpec{
			Bench: "mcf", PF: "none", Cores: 1,
			Warmup: 0, Measure: 30_000, Seed: seed, Degree: 1,
		},
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{StoreDir: t.TempDir(), QueueCap: 8, Workers: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Drain()
		srv.Close()
	})
	return srv
}

// postJob submits a spec over HTTP and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, SubmitResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	return resp, sr
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestSubmitRunFetch(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, sr := postJob(t, ts, tinySpec(1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, want 201", resp.StatusCode)
	}
	if sr.ID == "" || sr.Cached || sr.Deduped {
		t.Fatalf("submit response %+v, want fresh admission", sr)
	}
	st := waitDone(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Instructions == 0 {
		t.Error("done job reports zero instructions")
	}

	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, want 200", rr.StatusCode)
	}
	var jr JobResult
	if err := json.NewDecoder(rr.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Kind != KindSingle || jr.Result == nil {
		t.Fatalf("result envelope %+v, want a single-run result", jr)
	}
	if jr.Result.Cores[0].Instructions == 0 {
		t.Error("result carries no instructions")
	}
}

func TestUnknownJob404(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestBadSpec400(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bad := []JobSpec{
		{Kind: KindSingle},                  // no run spec
		{Kind: "bogus"},                     // unknown kind
		{Kind: KindFigure},                  // no figure id
		{Kind: KindFigure, Figure: "fig99"}, // unknown figure
		tinyWith(func(r *experiments.RunSpec) { r.Bench = "bogus" }),
		tinyWith(func(r *experiments.RunSpec) { r.PF = "bogus" }),
		tinyWith(func(r *experiments.RunSpec) { r.Measure = 0 }),
	}
	for i, spec := range bad {
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

func tinyWith(mutate func(*experiments.RunSpec)) JobSpec {
	s := tinySpec(1)
	mutate(s.Run)
	return s
}

// TestResultNotReady pins the 202 + Retry-After contract for a job
// that is still running.
func TestResultNotReady(t *testing.T) {
	gate := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Gate = func(string) { <-gate }
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate)

	_, sr := postJob(t, ts, tinySpec(1))
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("result of unfinished job: status %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("202 response carries no Retry-After")
	}
}

// TestBackpressure429 fills the queue behind a gated worker and
// verifies the overflow submission is rejected with 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 1
		c.Gate = func(string) { <-gate }
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate)

	// First job: admitted, popped by the single worker, held at the gate.
	resp, sr := postJob(t, ts, tinySpec(1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	waitState(t, srv, sr.ID, StateRunning)

	// Second job: fills the queue (cap 1).
	if resp, _ := postJob(t, ts, tinySpec(2)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	// Third: over capacity.
	resp3, _ := postJob(t, ts, tinySpec(3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After")
	}
}

func waitState(t *testing.T, srv *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := srv.Lookup(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if srv.Status(j).State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestDedupSingleFlight submits the same spec twice while the first is
// held in flight: the second joins it (same id, nothing re-simulated),
// even at a different priority.
func TestDedupSingleFlight(t *testing.T) {
	gate := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Gate = func(string) { <-gate }
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, sr1 := postJob(t, ts, tinySpec(1))
	spec2 := tinySpec(1)
	spec2.Priority = 9
	resp2, sr2 := postJob(t, ts, spec2)
	if resp2.StatusCode != http.StatusOK || !sr2.Deduped {
		t.Fatalf("duplicate submit: status %d resp %+v, want 200 deduped", resp2.StatusCode, sr2)
	}
	if sr2.ID != sr1.ID {
		t.Errorf("duplicate got id %s, want %s", sr2.ID, sr1.ID)
	}
	close(gate)
	waitDone(t, ts, sr1.ID)
	if got := srv.Registry().Snapshot()["completed"].(int64); got != 1 {
		t.Errorf("completed %d jobs, want 1 (dedup must not re-simulate)", got)
	}
}

// TestWarmStoreServes runs a job to completion, restarts the service on
// the same store directory, and verifies the resubmission is served
// from the warm store byte-identically, without simulating.
func TestWarmStoreServes(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	_, sr1 := postJob(t, ts1, tinySpec(1))
	waitDone(t, ts1, sr1.ID)
	r1, err := ts1.Client().Get(ts1.URL + "/v1/jobs/" + sr1.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body1 := readAll(t, r1)
	ts1.Close()
	srv1.Drain()
	srv1.Close()

	srv2, err := New(Config{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	defer srv2.Drain()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, sr2 := postJob(t, ts2, tinySpec(1))
	if resp.StatusCode != http.StatusOK || !sr2.Cached {
		t.Fatalf("warm submit: status %d resp %+v, want 200 cached", resp.StatusCode, sr2)
	}
	if sr2.ID != sr1.ID {
		t.Errorf("warm job id %s, want %s (content-addressed ids are stable)", sr2.ID, sr1.ID)
	}
	r2, err := ts2.Client().Get(ts2.URL + "/v1/jobs/" + sr2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, r2)
	if !bytes.Equal(body1, body2) {
		t.Error("warm-store result differs from the originally simulated one")
	}
	if got := srv2.Registry().Snapshot()["completed"].(int64); got != 0 {
		t.Errorf("warm serve simulated %d jobs, want 0", got)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestFailedJobNotCachedOrStored aborts a job via a tiny deadline and
// verifies the failure is reported (409), never stored, and that a
// resubmission is admitted fresh rather than deduped onto the corpse.
// The abort lands on the job's run span with the watchdog's reason.
func TestFailedJobNotCachedOrStored(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Deadline = 15 * time.Millisecond
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := JobSpec{Kind: KindSingle, Run: &experiments.RunSpec{
		Bench: "mcf", PF: "none", Cores: 1, Warmup: 0, Measure: 500_000_000, Seed: 7, Degree: 1,
	}}
	_, sr := postJob(t, ts, big)
	st := waitDone(t, ts, sr.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("job ended %s (%q), want failed with a reason", st.State, st.Error)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of failed job: status %d, want 409", resp.StatusCode)
	}
	if srv.store.Has("single/" + big.Run.Key()) {
		t.Error("failed result was persisted to the store")
	}
	tr, ok := srv.FlightRecorder().Get(sr.ID)
	if !ok {
		t.Fatal("failed job's trace is not in the flight recorder")
	}
	cancelled := ""
	for _, sp := range tr.Dump().Spans {
		if sp.Name == "run" {
			cancelled = sp.Attrs["cancelled"]
		}
	}
	if !strings.Contains(cancelled, "deadline") {
		t.Errorf("run span cancelled = %q, want the watchdog's deadline reason", cancelled)
	}
	// Resubmission after failure must not dedup onto the failed job.
	resp2, sr2 := postJob(t, ts, big)
	if resp2.StatusCode != http.StatusCreated || sr2.Deduped || sr2.Cached {
		t.Errorf("resubmit after failure: status %d resp %+v, want fresh 201", resp2.StatusCode, sr2)
	}
	waitDone(t, ts, sr2.ID)
}

// TestFigureJob runs a whole registry experiment through the service
// and checks the rendered table arrives and is stored for warm serves.
func TestFigureJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Kind: KindFigure, Figure: "fig05", Scale: &FigureScale{
		Warmup: 10_000, Measure: 30_000, MultiWarmup: 10_000, MultiMeasure: 20_000, Mixes: 1,
	}}
	_, sr := postJob(t, ts, spec)
	st := waitDone(t, ts, sr.ID)
	if st.State != StateDone || st.Failed {
		t.Fatalf("figure job ended %+v", st)
	}
	var jr JobResult
	if err := json.Unmarshal(readAll(t, mustGet(t, ts, "/v1/jobs/"+sr.ID+"/result")), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Kind != KindFigure || jr.Table == nil || len(jr.Table.Rows) == 0 {
		t.Fatalf("figure result envelope %+v, want a populated table", jr)
	}
	if !srv.store.Has(spec.key()) {
		t.Error("figure table not persisted for warm serves")
	}
}

func mustGet(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSSEEvents follows a job's event stream and requires progress and
// a final done event, with samples when the spec requests them.
func TestSSEEvents(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := tinySpec(1)
	spec.Run.Measure = 100_000
	spec.Run.SampleEvery = 20_000
	_, sr := postJob(t, ts, spec)
	resp := mustGet(t, ts, "/v1/jobs/"+sr.ID+"/events")
	body := readAll(t, resp)
	text := string(body)
	if !bytes.Contains(body, []byte("event: done")) {
		t.Errorf("stream carries no done event:\n%s", text)
	}
	if !bytes.Contains(body, []byte("event: sample")) {
		t.Errorf("stream carries no sample events:\n%s", text)
	}
	if !bytes.Contains(body, []byte("event: progress")) {
		t.Errorf("stream carries no progress events:\n%s", text)
	}
}

// TestMetricsEndpoint spot-checks the counters the smoke test relies on.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, sr := postJob(t, ts, tinySpec(1))
	waitDone(t, ts, sr.ID)
	var m map[string]any
	if err := json.Unmarshal(readAll(t, mustGet(t, ts, "/metrics")), &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"submitted", "completed", "queue_depth", "workers", "pool_runs"} {
		if _, ok := m[k]; !ok {
			t.Errorf("metrics missing %q: %v", k, m)
		}
	}
	if m["submitted"].(float64) != 1 || m["completed"].(float64) != 1 {
		t.Errorf("metrics counted %v submitted / %v completed, want 1/1", m["submitted"], m["completed"])
	}
}

// TestDrainingRejects503 verifies the drain window rejects submissions.
func TestDrainingRejects503(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Drain()
	resp, _ := postJob(t, ts, tinySpec(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestJobsListing lists jobs in admission order.
func TestJobsListing(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var ids []string
	for i := uint64(1); i <= 3; i++ {
		_, sr := postJob(t, ts, tinySpec(i))
		ids = append(ids, sr.ID)
	}
	for _, id := range ids {
		waitDone(t, ts, id)
	}
	var got []JobStatus
	if err := json.Unmarshal(readAll(t, mustGet(t, ts, "/v1/jobs")), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(got))
	}
	for i, st := range got {
		if st.ID != ids[i] {
			t.Errorf("listing[%d] = %s, want %s (admission order)", i, st.ID, ids[i])
		}
	}
}
