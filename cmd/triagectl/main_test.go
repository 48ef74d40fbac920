package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestBackoffDelaySchedule pins the client's retry schedule:
// exponential from 250ms, capped at 5s, and always within the ±25%
// jitter band, even at an attempt deep enough to overflow a shift.
func TestBackoffDelaySchedule(t *testing.T) {
	const base, cap = 250 * time.Millisecond, 5 * time.Second
	c := testClient("http://unused", 0)
	for _, attempt := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 63} {
		want := cap
		if attempt < 32 && base<<attempt < cap {
			want = base << attempt
		}
		for i := 0; i < 100; i++ {
			if got := c.retry.Delay(attempt); got < want*3/4 || got > want*5/4 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, want*3/4, want*5/4)
			}
		}
	}
}

// TestRetryableNetErr classifies transport errors the way the CLI
// retries them: refused/reset (server restarting) retry, everything
// else surfaces immediately.
func TestRetryableNetErr(t *testing.T) {
	wrapped := &url.Error{Op: "Post", URL: "http://x", Err: fmt.Errorf("dial: %w", syscall.ECONNREFUSED)}
	cases := []struct {
		err  error
		want bool
	}{
		{syscall.ECONNREFUSED, true},
		{syscall.ECONNRESET, true},
		{wrapped, true},
		{errors.New("no such host"), false},
		{syscall.EACCES, false},
	}
	for _, c := range cases {
		if got := retryableNetErr(c.err); got != c.want {
			t.Errorf("retryableNetErr(%v) = %t, want %t", c.err, got, c.want)
		}
	}
}

// testClient builds a client with a fixed backoff seed, so each
// test's retry schedule is the same on every run.
func testClient(base string, retries int) *client {
	return newClient(base, retries, 42)
}

// TestDoRetries5xxThenSucceeds serves two 503s then a success and
// verifies the client rides through them.
func TestDoRetries5xxThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 3)
	start := time.Now()
	resp, err := c.do(http.MethodGet, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retries, want 200", resp.StatusCode)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3", n)
	}
	// Two waits: ~250ms + ~500ms, ±25%.
	if e := time.Since(start); e < 500*time.Millisecond {
		t.Errorf("retries finished in %v, want ≥ 500ms of backoff", e)
	}
}

// TestDoGivesUpAfterBudget verifies the retry budget is honored and
// the final 5xx is returned for error rendering.
func TestDoGivesUpAfterBudget(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 1)
	resp, err := c.do(http.MethodGet, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want the final 500", resp.StatusCode)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d requests, want 2 (1 try + 1 retry)", n)
	}
}

// TestDoRetriesConnectionRefused points the client at a dead address:
// every attempt is refused, the budget is consumed, and the transport
// error surfaces.
func TestDoRetriesConnectionRefused(t *testing.T) {
	// Bind-then-close guarantees an unused port that refuses.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead := ts.URL
	ts.Close()

	c := testClient(dead, 2)
	start := time.Now()
	_, err := c.do(http.MethodGet, "/", nil)
	if err == nil {
		t.Fatal("dead server supposedly answered")
	}
	if !retryableNetErr(err) {
		t.Fatalf("final error %v is not the refused/reset class that was retried", err)
	}
	// Two waits (~250ms, ~500ms ±25%) prove retries actually happened.
	if e := time.Since(start); e < 500*time.Millisecond {
		t.Errorf("gave up after %v, want ≥ 500ms of backoff (2 retries)", e)
	}
}

// TestDoDoesNotRetryClientErrors pins that 4xx responses surface
// immediately: retrying a bad spec wastes the budget and hides bugs.
func TestDoDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad","code":"bad_spec"}`)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 5)
	resp, err := c.do(http.MethodPost, "/v1/jobs", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d requests, want 1 (no retry on 4xx)", n)
	}
}

// TestSubmitRetriesAcrossRestart simulates the server vanishing and
// coming back between submit attempts: the submit eventually lands
// and the job id is the content-addressed one — no duplicate job.
func TestSubmitRetriesAcrossRestart(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable) // draining before "restart"
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"jdeadbeef","state":"queued"}`)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 3)
	sr, err := c.submit(service.JobSpec{Kind: service.KindSingle})
	if err != nil {
		t.Fatal(err)
	}
	if sr.ID != "jdeadbeef" {
		t.Errorf("submit landed on job %q, want jdeadbeef", sr.ID)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d submits, want 2", n)
	}
}

// captureFd swaps the given *os.File (os.Stdout/os.Stderr) for a pipe
// while fn runs and returns everything written to it.
func captureFd(t *testing.T, fd **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := *fd
	*fd = w
	defer func() { *fd = old }()
	fn()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDo429HonorsRetryAfter pins the backpressure path: a 429 with
// Retry-After is waited out (without consuming the retry budget), and
// the log line surfaces both the wait and the attempt count.
func TestDo429HonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 0) // zero budget: the 429 wait must not need it
	start := time.Now()
	logged := captureFd(t, &os.Stderr, func() {
		resp, err := c.do(http.MethodPost, "/v1/jobs", []byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d after the 429 wait, want 200", resp.StatusCode)
		}
	})
	if e := time.Since(start); e < time.Second {
		t.Errorf("request finished in %v, want ≥ 1s (Retry-After honored)", e)
	}
	if !strings.Contains(logged, "waiting 1s per Retry-After") || !strings.Contains(logged, "(attempt 1)") {
		t.Errorf("429 log line missing the wait or attempt count: %q", logged)
	}
}

// TestCmdMetricsProm pins the -prom flag: the raw Prometheus text is
// passed through to stdout untouched.
func TestCmdMetricsProm(t *testing.T) {
	const exposition = "# TYPE triaged_submitted_total counter\ntriaged_submitted_total 3\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" || r.URL.Query().Get("format") != "prometheus" {
			t.Errorf("unexpected request %s", r.URL)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, exposition)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 0)
	out := captureFd(t, &os.Stdout, func() {
		if err := c.cmdMetrics([]string{"-prom"}); err != nil {
			t.Fatal(err)
		}
	})
	if out != exposition {
		t.Errorf("metrics -prom output = %q, want the exposition verbatim", out)
	}
}

// TestCmdTraceTimeline pins the trace rendering: spans appear in order
// with offsets relative to the first span and durations for ended ones.
func TestCmdTraceTimeline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/trace/j1" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"trace_id":"t000001","job_id":"j1","spans":[
			{"name":"admit","start_ns":1000,"attrs":{"disposition":"new"}},
			{"name":"queue-wait","start_ns":1000,"end_ns":2001000},
			{"name":"run","start_ns":2001000,"end_ns":5001000}]}`)
	}))
	defer ts.Close()

	c := testClient(ts.URL, 0)
	out := captureFd(t, &os.Stdout, func() {
		if err := c.cmdTrace([]string{"j1"}); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{
		"trace t000001 (job j1)",
		"admit",
		`{"disposition":"new"}`,
		"queue-wait  [2ms]",
		"run  [3ms]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace timeline missing %q:\n%s", want, out)
		}
	}
}

// TestApiErrorRendersEnvelope checks the structured error envelope is
// surfaced to the user, code included via the prose.
func TestApiErrorRendersEnvelope(t *testing.T) {
	resp := &http.Response{
		Status:     "400 Bad Request",
		StatusCode: http.StatusBadRequest,
		Body:       http.NoBody,
	}
	resp.Body = httpBody(`{"error":"decoding job spec: boom","code":"bad_spec"}`)
	err := apiError(resp)
	if err == nil || !strings.Contains(err.Error(), "decoding job spec: boom") {
		t.Fatalf("apiError = %v, want the envelope prose", err)
	}
}

func httpBody(s string) *bodyReader { return &bodyReader{Reader: strings.NewReader(s)} }

type bodyReader struct{ *strings.Reader }

func (b *bodyReader) Close() error { return nil }
