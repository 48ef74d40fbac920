package netfault

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// echoServer counts requests and echoes a fixed body, so tests can see
// both whether a request was delivered and whether the response
// survived.
func echoServer(t *testing.T, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func get(t *testing.T, c *http.Client, url string) (string, error) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestTransportPassthrough(t *testing.T) {
	ts, hits := echoServer(t, "ok")
	tr := New(nil, Plan{})
	body, err := get(t, &http.Client{Transport: tr}, ts.URL)
	if err != nil || body != "ok" {
		t.Fatalf("passthrough: body=%q err=%v", body, err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1", hits.Load())
	}
	if len(tr.Counters()) != 0 {
		t.Fatalf("zero plan injected faults: %v", tr.Counters())
	}
}

func TestTransportDeterministic(t *testing.T) {
	// The same seed must produce the same fault sequence; a different
	// seed must diverge somewhere over 200 requests.
	run := func(seed int64) []bool {
		ts, _ := echoServer(t, "ok")
		tr := New(nil, Plan{Seed: seed, PRefuse: 0.3})
		c := &http.Client{Transport: tr}
		out := make([]bool, 200)
		for i := range out {
			_, err := get(t, c, ts.URL)
			out[i] = err != nil
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different fault sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestTransportFaultClasses(t *testing.T) {
	ts, hits := echoServer(t, strings.Repeat("x", 1024))
	t.Run("refuse", func(t *testing.T) {
		tr := New(nil, Plan{PRefuse: 1})
		_, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("refuse should unwrap to ECONNREFUSED, got %v", err)
		}
		if !IsInjected(err) {
			t.Fatalf("IsInjected(%v) = false", err)
		}
	})
	t.Run("reset", func(t *testing.T) {
		before := hits.Load()
		tr := New(nil, Plan{PReset: 1})
		_, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("reset should unwrap to ECONNRESET, got %v", err)
		}
		if hits.Load() != before {
			t.Fatal("reset must not deliver the request")
		}
	})
	t.Run("drop-response", func(t *testing.T) {
		before := hits.Load()
		tr := New(nil, Plan{PDropResponse: 1})
		_, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("drop-response should look like a reset, got %v", err)
		}
		if hits.Load() != before+1 {
			t.Fatal("drop-response must deliver and execute the request")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		tr := New(nil, Plan{PTruncate: 1})
		body, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncate should surface ErrUnexpectedEOF, got %v", err)
		}
		if len(body) == 0 || len(body) >= 1024 {
			t.Fatalf("truncate delivered %d bytes, want a proper prefix of 1024", len(body))
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		before := hits.Load()
		tr := New(nil, Plan{PDuplicate: 1})
		body, err := get(t, &http.Client{Transport: tr}, ts.URL)
		if err != nil || len(body) != 1024 {
			t.Fatalf("duplicate delivery should still succeed: len=%d err=%v", len(body), err)
		}
		if hits.Load() != before+2 {
			t.Fatalf("duplicate must execute twice, got %d extra hits", hits.Load()-before)
		}
	})
	t.Run("delay", func(t *testing.T) {
		tr := New(nil, Plan{PDelay: 1, Delay: 5 * time.Millisecond})
		var slept time.Duration
		tr.sleep = func(d time.Duration) { slept += d }
		if _, err := get(t, &http.Client{Transport: tr}, ts.URL); err != nil {
			t.Fatal(err)
		}
		if slept != 5*time.Millisecond {
			t.Fatalf("slept %v, want 5ms", slept)
		}
	})
}

func TestTransportPartitionSwitches(t *testing.T) {
	ts, hits := echoServer(t, "ok")
	tr := New(nil, Plan{})
	c := &http.Client{Transport: tr}

	tr.Cut()
	if _, err := get(t, c, ts.URL); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("cut: want ECONNREFUSED, got %v", err)
	}
	if hits.Load() != 0 {
		t.Fatal("cut must not deliver")
	}

	tr.CutOneWay()
	before := hits.Load()
	if _, err := get(t, c, ts.URL); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("one-way cut: want ECONNRESET, got %v", err)
	}
	if hits.Load() != before+1 {
		t.Fatal("one-way cut must deliver and execute")
	}

	tr.Restore()
	if body, err := get(t, c, ts.URL); err != nil || body != "ok" {
		t.Fatalf("restore: body=%q err=%v", body, err)
	}
}

func TestTransportMatchScoping(t *testing.T) {
	ts, _ := echoServer(t, "ok")
	tr := New(nil, Plan{})
	tr.Match(func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/heartbeat") })
	tr.Cut()
	c := &http.Client{Transport: tr}
	if _, err := get(t, c, ts.URL+"/poll"); err != nil {
		t.Fatalf("unmatched path must pass through a cut: %v", err)
	}
	if _, err := get(t, c, ts.URL+"/heartbeat"); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("matched path must be cut, got %v", err)
	}
}

func TestListenerCutAndRestore(t *testing.T) {
	ts, _ := echoServer(t, "ok")
	// Re-listen through the fault wrapper on a fresh server.
	inner := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	ln := WrapListener(inner.Listener, Plan{})
	inner.Listener = ln
	inner.Start()
	defer inner.Close()
	_ = ts

	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	if body, err := get(t, c, inner.URL); err != nil || body != "ok" {
		t.Fatalf("healthy listener: body=%q err=%v", body, err)
	}
	ln.Cut()
	if _, err := get(t, c, inner.URL); err == nil {
		t.Fatal("cut listener should fail requests")
	}
	ln.Restore()
	if body, err := get(t, c, inner.URL); err != nil || body != "ok" {
		t.Fatalf("restored listener: body=%q err=%v", body, err)
	}
	if ln.Counters()["cut"] == 0 {
		t.Fatalf("cut counter not incremented: %v", ln.Counters())
	}
}

// TestCutClosesLiveConnections: Cut must reset a connection that is
// still open. It used to close connections while holding the lock
// that their Close takes to deregister, and hung.
func TestCutClosesLiveConnections(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := WrapListener(inner, Plan{})
	defer ln.Close()
	client, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		ln.Cut()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Cut hung closing a live connection")
	}
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Error("the cut connection is still readable")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=9,refuse=0.05,reset=0.02,drop=0.03,trunc=0.01,dup=0.04,delay=0.1:40ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 9, PRefuse: 0.05, PReset: 0.02, PDropResponse: 0.03,
		PTruncate: 0.01, PDuplicate: 0.04, PDelay: 0.1, Delay: 40 * time.Millisecond}
	if p != want {
		t.Fatalf("ParsePlan = %+v, want %+v", p, want)
	}
	if _, err := ParsePlan("bogus=1"); err == nil {
		t.Fatal("unknown key should error")
	}
	if _, err := ParsePlan(""); err != nil {
		t.Fatalf("empty plan should parse: %v", err)
	}
}
