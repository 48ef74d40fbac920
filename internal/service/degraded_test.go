package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// flight-recorder dump the server writes on degraded entry.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDegradedModeAndRecovery walks the whole degraded-mode lifecycle:
// a healthy server persists normally; when the disk starts failing, a
// completed job's result is preserved in memory (still served, still
// deduped onto), /healthz flips to 503, and new submissions are
// rejected with 503 degraded; when the disk heals, the recovery probe
// flushes the preserved results durably and restores full service.
func TestDegradedModeAndRecovery(t *testing.T) {
	mem := vfs.NewMem(1)
	faulty := vfs.NewFaulty(mem, vfs.Plan{Seed: 1})

	spec2 := tinySpec(2)
	if err := spec2.normalize(); err != nil {
		t.Fatal(err)
	}
	key2 := spec2.key()
	gate2 := make(chan struct{})
	gateClosed := false
	defer func() {
		if !gateClosed {
			close(gate2)
		}
	}()

	var flightDump syncBuffer
	srv := newTestServer(t, func(c *Config) {
		c.FS = faulty
		c.ProbeInterval = 20 * time.Millisecond
		c.Workers = 1
		c.TraceLog = &flightDump
		c.Gate = func(key string) {
			if key == key2 {
				<-gate2
			}
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy: job 1 runs and persists.
	_, sr1 := postJob(t, ts, tinySpec(1))
	if st := waitDone(t, ts, sr1.ID); st.State != StateDone {
		t.Fatalf("healthy job ended %s (%s)", st.State, st.Error)
	}
	if !srv.store.Has("single/"+tinySpec(1).Run.Key()) || srv.Degraded() {
		t.Fatal("healthy job not persisted, or server degraded without a fault")
	}

	// Job 2 is admitted healthy, then the disk starts failing every
	// write while the worker is held at the gate: its persist fails.
	_, sr2 := postJob(t, ts, tinySpec(2))
	faulty.SetPlan(vfs.Plan{Seed: 2, PWrite: 1, PSync: 1})
	gateClosed = true
	close(gate2)
	st2 := waitDone(t, ts, sr2.ID)
	if st2.State != StateDone {
		t.Fatalf("job under failing disk ended %s (%s), want done (result preserved in memory)", st2.State, st2.Error)
	}
	if !srv.Degraded() {
		t.Fatal("failed persist did not degrade the server")
	}
	if srv.DegradedCause() == "" {
		t.Error("degraded server reports no cause")
	}
	if srv.store.Has(key2) {
		t.Fatal("failing disk supposedly stored the result")
	}

	// The in-memory result still serves...
	body := readAll(t, mustGet(t, ts, "/v1/jobs/"+sr2.ID+"/result"))
	var jr JobResult
	if err := json.Unmarshal(body, &jr); err != nil || jr.Result == nil {
		t.Fatalf("degraded result unserveable: %v (%s)", err, body)
	}
	// Its trace reads in causal order through the failed write.
	tr2, ok := srv.FlightRecorder().Get(sr2.ID)
	if !ok {
		t.Fatal("job 2's trace is not in the flight recorder")
	}
	if err := obs.ValidateTrace(tr2.Dump(), "admit", "queue-wait", "run", "store-put", "done", "result-served"); err != nil {
		t.Error(err)
	}
	// ...and a resubmission dedups onto it rather than re-simulating.
	respDup, srDup := postJob(t, ts, tinySpec(2))
	if respDup.StatusCode != http.StatusOK || !srDup.Deduped {
		t.Errorf("resubmit while degraded: status %d resp %+v, want 200 deduped", respDup.StatusCode, srDup)
	}

	// New work is rejected 503 with the degraded code and a retry hint.
	resp3, _ := postJob(t, ts, tinySpec(3))
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while degraded: status %d, want 503", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 carries no Retry-After")
	}

	// /healthz reports degraded with the cause.
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hzBody map[string]string
	json.NewDecoder(hz.Body).Decode(&hzBody)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || hzBody["status"] != "degraded" || hzBody["cause"] == "" {
		t.Errorf("healthz while degraded: status %d body %v", hz.StatusCode, hzBody)
	}

	// Metrics expose the incident.
	m := srv.MetricsSnapshot()
	if m["degraded"] != true || m["pending_results"].(int) != 1 || m["degraded_entered"].(int64) < 1 {
		t.Errorf("degraded metrics %v", m)
	}
	if _, ok := m["fs_faults"]; !ok {
		t.Error("metrics omit fs_faults although the FS injects faults")
	}

	// The flight recorder captured the triggering fault as an incident
	// carrying the cause, and the whole recorder was dumped to the
	// configured TraceLog at the moment of entry.
	var sawIncident bool
	for _, d := range srv.FlightRecorder().DumpAll() {
		for _, sp := range d.Spans {
			if sp.Name == "degraded-enter" && sp.Attrs["cause"] != "" {
				sawIncident = true
			}
		}
	}
	if !sawIncident {
		t.Error("flight recorder holds no degraded-enter incident with a cause")
	}
	dump := flightDump.String()
	if !strings.Contains(dump, "flight-recorder-dump") || !strings.Contains(dump, "degraded-enter") {
		t.Errorf("degraded entry did not dump the flight recorder to TraceLog:\n%.400s", dump)
	}

	// degraded_seconds_total is live while degraded: /metrics exposes
	// it in both formats and it grows with wall time.
	if m["degraded_seconds_total"].(float64) < 0 {
		t.Error("degraded_seconds_total negative")
	}
	time.Sleep(20 * time.Millisecond)
	if s2 := srv.MetricsSnapshot()["degraded_seconds_total"].(float64); s2 <= 0 {
		t.Errorf("degraded_seconds_total = %v after 20ms degraded, want > 0", s2)
	}
	promReq, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	promReq.Header.Set("Accept", "text/plain")
	promResp, err := ts.Client().Do(promReq)
	if err != nil {
		t.Fatal(err)
	}
	promText := string(readAll(t, promResp))
	if !strings.Contains(promText, "triaged_degraded_seconds_total") ||
		!strings.Contains(promText, "triaged_degraded 1") {
		t.Errorf("Prometheus /metrics while degraded misses degraded series:\n%.400s", promText)
	}

	// Heal the disk: the probe flushes the preserved result and
	// restores service.
	faulty.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Degraded() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Degraded() {
		t.Fatal("server never recovered after the disk healed")
	}
	if !srv.store.Has(key2) {
		t.Fatal("recovery did not persist the preserved result")
	}
	m = srv.MetricsSnapshot()
	if m["pending_results"].(int) != 0 || m["recovered"].(int64) != 1 {
		t.Errorf("post-recovery metrics %v", m)
	}
	// The episode's duration is folded into the total, which stops
	// growing once healthy, and the recovery left its own incident.
	recoveredSecs := m["degraded_seconds_total"].(float64)
	if recoveredSecs <= 0 {
		t.Error("degraded_seconds_total did not accumulate the episode")
	}
	var sawRecovery bool
	for _, d := range srv.FlightRecorder().DumpAll() {
		for _, sp := range d.Spans {
			if sp.Name == "degraded-recovered" {
				sawRecovery = true
			}
		}
	}
	if !sawRecovery {
		t.Error("flight recorder holds no degraded-recovered incident")
	}
	hz2, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz2.Body.Close()
	if hz2.StatusCode != http.StatusOK {
		t.Errorf("healthz after recovery: status %d, want 200", hz2.StatusCode)
	}
	resp4, sr4 := postJob(t, ts, tinySpec(3))
	if resp4.StatusCode != http.StatusCreated {
		t.Fatalf("submit after recovery: status %d, want 201", resp4.StatusCode)
	}
	if st := waitDone(t, ts, sr4.ID); st.State != StateDone {
		t.Errorf("post-recovery job ended %s (%s)", st.State, st.Error)
	}
}

// TestSubmitRejectedWhenAdmissionLogFails pins the other degraded
// entry point: when the admission log itself cannot be written, the
// submission is NOT acknowledged (no job a crash could lose) and the
// server degrades.
func TestSubmitRejectedWhenAdmissionLogFails(t *testing.T) {
	mem := vfs.NewMem(3)
	faulty := vfs.NewFaulty(mem, vfs.Plan{Seed: 3})
	srv := newTestServer(t, func(c *Config) {
		c.FS = faulty
		c.ProbeInterval = time.Hour // recovery not under test here
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faulty.SetPlan(vfs.Plan{Seed: 3, PWrite: 1, PSync: 1})
	resp, sr := postJob(t, ts, tinySpec(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing admission log: status %d, want 503", resp.StatusCode)
	}
	if sr.ID != "" {
		t.Error("failed submission still handed out a job id")
	}
	if !srv.Degraded() {
		t.Error("failed admission write did not degrade the server")
	}
	if n := srv.MetricsSnapshot()["submitted"].(int64); n != 0 {
		t.Errorf("failed submission counted as submitted (%d)", n)
	}
	faulty.Heal() // let cleanup close files cleanly
	srv.store.ClearErr()
}

// TestSubmitOversizedBody413 pins the request-size cap: a body that
// exceeds maxSubmitBytes is cut off by MaxBytesReader and rejected
// with 413 and the body_too_large code, not buffered into the decoder.
func TestSubmitOversizedBody413(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Valid JSON whose one string token exceeds the cap, so the decoder
	// must read past the limit to finish it.
	body := `{"kind":"` + strings.Repeat("a", maxSubmitBytes+1024) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
	var he httpError
	if err := json.NewDecoder(resp.Body).Decode(&he); err != nil {
		t.Fatal(err)
	}
	if he.Code != codeTooLarge {
		t.Errorf("oversized submit code %q, want %q", he.Code, codeTooLarge)
	}
}

// TestErrorEnvelopeCodes verifies error responses carry stable
// machine-readable codes alongside the prose.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	var he httpError
	json.NewDecoder(resp.Body).Decode(&he)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || he.Code != codeBadSpec || he.Error == "" {
		t.Errorf("bad spec: status %d envelope %+v, want 400 %s", resp.StatusCode, he, codeBadSpec)
	}

	resp2, err := ts.Client().Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	var he2 httpError
	json.NewDecoder(resp2.Body).Decode(&he2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound || he2.Code != codeNotFound {
		t.Errorf("unknown job: status %d envelope %+v, want 404 %s", resp2.StatusCode, he2, codeNotFound)
	}
}
