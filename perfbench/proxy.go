package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"
)

// clusterRPCs are the worker-to-coordinator calls the traced cluster
// run times.
var clusterRPCs = []string{"register", "poll", "heartbeat", "events", "result"}

// rpcProxy is a timing reverse proxy placed between triageworker and the
// coordinator in traced cluster runs. It records each RPC's duration as
// the worker sees it (less one loopback hop), its bytes and its outcome.
type rpcProxy struct {
	ln  net.Listener
	srv *http.Server

	mu    sync.Mutex
	calls map[string]*rpcStats
}

type rpcStats struct {
	ms    []float64
	fail  int
	bytes int64
}

func newRPCProxy(target string) (*rpcProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &rpcProxy{ln: ln, calls: map[string]*rpcStats{}}
	rp := &httputil.ReverseProxy{Rewrite: func(pr *httputil.ProxyRequest) { pr.SetURL(u) }}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		rp.ServeHTTP(cw, r)
		p.record(rpcName(r.URL.Path), time.Since(start), cw.status, body.n+cw.n)
	})}
	go p.srv.Serve(ln) // returns once close shuts the server down
	return p, nil
}

func (p *rpcProxy) url() string { return "http://" + p.ln.Addr().String() }

func (p *rpcProxy) close() { p.srv.Close() }

func (p *rpcProxy) record(name string, d time.Duration, status int, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.calls[name]
	if st == nil {
		st = &rpcStats{}
		p.calls[name] = st
	}
	st.ms = append(st.ms, ms(d))
	st.bytes += n
	if status >= 400 {
		st.fail++
	}
}

// snapshot copies the stats out.
func (p *rpcProxy) snapshot() map[string]rpcStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[string]rpcStats{}
	for k, v := range p.calls {
		out[k] = rpcStats{ms: append([]float64(nil), v.ms...), fail: v.fail, bytes: v.bytes}
	}
	return out
}

// rpcName classifies a coordinator path: /cluster/v1/poll is "poll",
// /cluster/v1/jobs/{id}/result is "result".
func rpcName(path string) string {
	rest, ok := strings.CutPrefix(path, "/cluster/v1/")
	if !ok {
		return "other"
	}
	name := rest[strings.LastIndexByte(rest, '/')+1:]
	for _, n := range clusterRPCs {
		if n == name {
			return n
		}
	}
	return "other"
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
