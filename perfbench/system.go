package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// system is the service under test: one triaged, plus one triageworker
// when clustered, driven over HTTP from this process.
type system struct {
	b       *bench
	cluster bool
	client  *http.Client
	tr      *http.Transport

	starts int // processes started so far, for file names

	base   string // http://host:port of triaged
	server *proc
	worker *proc
	proxy  *rpcProxy // traced cluster runs only
}

// newSystem builds the client side. Load comes from this one process
// over at most nproc connections to each server.
func newSystem(b *bench, clustered bool) *system {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}
	return &system{b: b, cluster: clustered, tr: tr, client: &http.Client{Transport: tr}}
}

// startInfo is what one start of the system cost.
type startInfo struct {
	setup   float64 // launch to ready, seconds
	profile []string
}

// start launches the system on a store directory and waits until it is
// ready: triaged answers /healthz and, clustered, the worker has
// registered. Profiles are written only when profile is set.
func (s *system) start(store string, profile bool) (startInfo, error) {
	s.starts++
	dir := filepath.Join(s.b.work, fmt.Sprintf("start%d", s.starts))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return startInfo{}, err
	}
	var info startInfo
	portFile := filepath.Join(dir, "port")
	args := []string{"-listen", "127.0.0.1:0", "-portfile", portFile, "-store", store, "-workers", "1"}
	if s.cluster {
		args = append(args, "-cluster")
	}
	if profile {
		prof := filepath.Join(dir, "triaged.prof")
		args = append(args, "-cpuprofile", prof, "-tracecap", "8192")
		info.profile = append(info.profile, prof)
	}
	p, err := startProc("triaged", filepath.Join(s.b.bin, "triaged"), filepath.Join(dir, "triaged.log"), nil, args...)
	if err != nil {
		return info, err
	}
	s.server = p
	addr, err := waitForFile(portFile, 30*time.Second)
	if err != nil {
		return info, fmt.Errorf("triaged: %v\n%s", err, logTail(filepath.Join(dir, "triaged.log"), 20))
	}
	s.base = "http://" + strings.TrimSpace(string(addr))
	// The listener is up once the port file exists, so a request waits in
	// its backlog until triaged serves it; retries only cover a refusal.
	if err := s.poll(30*time.Second, func() bool {
		code, _, err := s.get("/healthz")
		return err == nil && code == http.StatusOK
	}); err != nil {
		return info, fmt.Errorf("triaged never became healthy: %v\n%s", err, logTail(filepath.Join(dir, "triaged.log"), 20))
	}
	if s.cluster {
		coord := s.base
		if profile {
			if s.proxy, err = newRPCProxy(s.base); err != nil {
				return info, err
			}
			coord = s.proxy.url()
		}
		wargs := []string{"-coordinator", coord, "-name", "perfbench-worker", "-slots", "1", "-poolworkers", "1",
			"-jitterseed", fmt.Sprint(s.b.seed%(1<<62) + 1)}
		if profile {
			prof := filepath.Join(dir, "worker.prof")
			wargs = append(wargs, "-cpuprofile", prof)
			info.profile = append(info.profile, prof)
		}
		w, err := startProc("triageworker", filepath.Join(s.b.bin, "triageworker"), filepath.Join(dir, "worker.log"), nil, wargs...)
		if err != nil {
			return info, err
		}
		s.worker = w
		// The worker logs its registration once the coordinator has
		// accepted it. Watching the log, not polling the coordinator,
		// keeps the harness from competing with the two starting
		// processes for the CPUs it is timing.
		wlog := filepath.Join(dir, "worker.log")
		if err := s.poll(30*time.Second, func() bool {
			b, err := os.ReadFile(wlog)
			return err == nil && bytes.Contains(b, []byte("registered as "))
		}); err != nil {
			return info, fmt.Errorf("triageworker never registered: %v\n%s", err, logTail(filepath.Join(dir, "worker.log"), 20))
		}
	}
	info.setup = time.Since(p.start).Seconds()
	return info, nil
}

// stopInfo is what one start of the system consumed.
type stopInfo struct {
	cpu float64 // user+sys of its processes
	rss float64 // sum of their peak RSS: they were alive together
}

// stop drains the system with SIGTERM, worker first so its long poll
// does not hold the coordinator's shutdown, and reaps it.
func (s *system) stop() (stopInfo, error) {
	var info stopInfo
	var errs []string
	for _, p := range []*proc{s.worker, s.server} {
		if p == nil {
			continue
		}
		if err := p.stop(syscall.SIGTERM, 60*time.Second); err != nil {
			errs = append(errs, fmt.Sprintf("%s exit: %v", p.name, err))
		}
		info.cpu += p.cpuSeconds()
		info.rss += p.peakRSSMB()
	}
	s.worker, s.server = nil, nil
	if s.proxy != nil {
		s.proxy.close()
	}
	s.tr.CloseIdleConnections()
	if len(errs) > 0 {
		return info, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return info, nil
}

// cpuSoFar is the CPU its running processes have used so far.
func (s *system) cpuSoFar() float64 {
	var cpu float64
	for _, p := range []*proc{s.server, s.worker} {
		if p != nil {
			cpu += p.cpuSoFar()
		}
	}
	return cpu
}

// stopProbe stops a system started only to time its start-up. triaged
// answers /healthz before it installs its SIGTERM handler, so a SIGTERM
// sent the moment it is ready can kill it undrained; the pause lets the
// handler go in first.
func (s *system) stopProbe() error {
	time.Sleep(20 * time.Millisecond)
	_, err := s.stop()
	return err
}

// poll retries cond every 200µs until it holds or limit passes. Start-up
// takes milliseconds, so a coarser interval would quantize set-up time.
func (s *system) poll(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *system) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (s *system) getJSON(path string, v any) error {
	code, body, err := s.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	return json.Unmarshal(body, v)
}

// submission is one job submitted, followed to completion over SSE and
// fetched, with the harness's own timing of each call.
type submission struct {
	key     string
	sha     string     // of experiments.EncodeResult of the fetched result
	result  sim.Result // the fetched result
	cached  bool
	deduped bool
	fresh   bool // admitted as a new job (HTTP 201)

	submitAt  time.Time
	submitted time.Time // submit response received
	doneAt    time.Time // SSE done received
	fetchedAt time.Time // result body read
	gap       time.Duration
	err       error
}

func (r submission) latencyMS() float64 { return ms(r.fetchedAt.Sub(r.submitAt)) }
func ms(d time.Duration) float64        { return float64(d) / 1e6 }

// do submits spec, waits for SSE done, and fetches the result. admitted
// is closed once the submit call has returned, so items that depend on
// this one can go ahead.
func (s *system) do(spec experiments.RunSpec, r *submission, admitted chan struct{}) {
	body, _ := json.Marshal(service.JobSpec{Kind: service.KindSingle, Run: &spec}) // plain data
	r.submitAt = time.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	// The server admits a job before it writes the response headers.
	if admitted != nil {
		close(admitted)
	}
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return
	}
	var sr service.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	r.submitted = time.Now()
	switch {
	case resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("submit %s: status %d", spec.Key(), resp.StatusCode)
		return
	case derr != nil:
		r.err = fmt.Errorf("submit %s: %w", spec.Key(), derr)
		return
	}
	r.fresh, r.cached, r.deduped = resp.StatusCode == http.StatusCreated, sr.Cached, sr.Deduped

	if err := s.awaitDone(sr.ID); err != nil {
		r.err = fmt.Errorf("events %s: %w", spec.Key(), err)
		return
	}
	r.doneAt = time.Now()

	code, payload, err := s.get("/v1/jobs/" + sr.ID + "/result")
	r.fetchedAt = time.Now()
	if err != nil || code != http.StatusOK {
		r.err = fmt.Errorf("result %s: status %d: %v", spec.Key(), code, err)
		return
	}
	var env service.JobResult
	if err := json.Unmarshal(payload, &env); err != nil || env.Result == nil {
		r.err = fmt.Errorf("result %s: undecodable envelope", spec.Key())
		return
	}
	r.result = *env.Result
	sum := sha256.Sum256(experiments.EncodeResult(*env.Result))
	r.sha = hex.EncodeToString(sum[:])
}

// awaitDone follows the job's event stream until its terminal event.
// The server emits done as soon as the job's feed finishes, so this
// neither polls nor sleeps.
func (s *system) awaitDone(id string) error {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			var st service.JobStatus
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return err
			}
			if st.State != service.StateDone {
				return fmt.Errorf("job ended %s: %s", st.State, st.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without done")
}

// closedLoop runs the items with the given number of clients, each
// submitting its next item only once its previous result is fetched.
func (s *system) closedLoop(items []jobItem, clients int) []submission {
	out := make([]submission, len(items))
	admitted := make([]chan struct{}, len(items))
	for i := range admitted {
		admitted[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				if it.after >= 0 {
					<-admitted[it.after]
				}
				r := &out[i]
				r.key = it.spec.Key()
				s.do(it.spec, r, admitted[i])
				if !last.IsZero() {
					r.gap = r.submitAt.Sub(last)
				}
				last = r.fetchedAt
			}
		}()
	}
	wg.Wait()
	return out
}

// debugTraces dumps triaged's flight recorder.
func (s *system) debugTraces() ([]obs.TraceDump, error) {
	var ts []obs.TraceDump
	err := s.getJSON("/debug/trace", &ts)
	return ts, err
}

// serviceCounters reads the counters of triaged's /metrics.
func (s *system) serviceCounters() (map[string]float64, error) {
	var m map[string]any
	if err := s.getJSON("/metrics?format=json", &m); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}
