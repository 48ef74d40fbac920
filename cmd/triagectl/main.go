// Command triagectl is the client for the triaged simulation service:
// submit jobs, wait for them, and fetch results.
//
//	triagectl -addr 127.0.0.1:8080 submit -bench graph500 -pf triage -wait -o res.json
//	triagectl -addr 127.0.0.1:8080 figures -j 4 fig05 fig10
//	triagectl -addr 127.0.0.1:8080 status j1a2b3c4d5e6f708
//	triagectl -addr 127.0.0.1:8080 result j1a2b3c4d5e6f708 -o res.json
//
// Single-run results are written in the same byte-exact JSON encoding
// as `triagesim -json`, so outputs from the two paths can be compared
// with cmp(1).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "triagectl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: triagectl [-addr HOST:PORT] {submit|status|wait|result|jobs|figures|workers|metrics|trace} ...")
}

func run(args []string) error {
	global := flag.NewFlagSet("triagectl", flag.ContinueOnError)
	addr := global.String("addr", "127.0.0.1:8080", "triaged address (HOST:PORT)")
	maxRetries := global.Int("max-retries", 8, "retries for transient failures (connection refused/reset, 5xx) with capped exponential backoff")
	if err := global.Parse(args); err != nil {
		return err
	}
	if global.NArg() == 0 {
		return usage()
	}
	c := newClient("http://"+*addr, *maxRetries, time.Now().UnixNano())
	cmd, rest := global.Arg(0), global.Args()[1:]
	switch cmd {
	case "submit":
		return c.cmdSubmit(rest)
	case "status":
		return c.cmdStatus(rest)
	case "wait":
		return c.cmdWait(rest)
	case "result":
		return c.cmdResult(rest)
	case "jobs":
		return c.cmdJobs(rest)
	case "figures":
		return c.cmdFigures(rest)
	case "workers":
		return c.cmdWorkers(rest)
	case "metrics":
		return c.cmdMetrics(rest)
	case "trace":
		return c.cmdTrace(rest)
	default:
		return fmt.Errorf("unknown command %q\n%v", cmd, usage())
	}
}

// client wraps the service HTTP API. All requests go through do,
// which retries transient failures: the server restarting (connection
// refused/reset) or answering 5xx. Retrying a submit is safe because
// job ids are content-addressed — resubmitting the same spec after an
// ambiguous failure lands on the same job (deduped or served warm),
// never a duplicate simulation.
type client struct {
	base       string
	http       http.Client
	maxRetries int
	retry      *cluster.Backoff
}

// newClient builds a client whose retries follow the cluster's seeded
// backoff: 250ms·2^attempt, capped at 5s, ±25% jitter.
func newClient(base string, maxRetries int, seed int64) *client {
	return &client{
		base:       base,
		maxRetries: maxRetries,
		retry:      cluster.NewBackoff(seed, 250*time.Millisecond, 5*time.Second),
	}
}

// retryableNetErr reports whether err is a transient connection
// failure worth retrying: the server may be restarting behind the
// same address (refused), or it died mid-exchange (reset, abrupt EOF).
func retryableNetErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// do issues one API request, retrying per the client's budget. 429
// backpressure is not a failure and does not consume the budget — the
// server asked us to wait, so we wait as long as it keeps asking.
func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	attempt, waits429 := 0, 0
	for {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rdr)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		switch {
		case err != nil:
			if !retryableNetErr(err) || attempt >= c.maxRetries {
				return nil, err
			}
		case resp.StatusCode == http.StatusTooManyRequests:
			delay := retryAfter(resp, 2*time.Second)
			resp.Body.Close()
			waits429++
			fmt.Fprintf(os.Stderr, "triagectl: %s %s: queue full — waiting %v per Retry-After (attempt %d)\n",
				method, path, delay, waits429)
			time.Sleep(delay)
			continue
		case resp.StatusCode < http.StatusInternalServerError:
			return resp, nil
		default:
			if attempt >= c.maxRetries {
				return resp, nil // caller renders the 5xx via apiError
			}
		}
		delay := c.retry.Delay(attempt)
		reason, src := "", "backoff"
		if err != nil {
			reason = err.Error()
		} else {
			reason = resp.Status
			// A degraded server hints when to come back; honor it if it
			// is longer than our own schedule.
			if ra := retryAfter(resp, 0); ra > delay {
				delay, src = ra, "Retry-After"
			}
			resp.Body.Close()
		}
		attempt++
		fmt.Fprintf(os.Stderr, "triagectl: %s %s: %s — retry %d/%d in %v (%s)\n",
			method, path, reason, attempt, c.maxRetries, delay, src)
		time.Sleep(delay)
	}
}

// apiError decodes the service's error envelope into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(resp.Body)
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit posts a job. Backpressure (429) and transient failures are
// retried by do; resubmission is idempotent (content-addressed ids).
func (c *client) submit(spec service.JobSpec) (service.SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.SubmitResponse{}, err
	}
	resp, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return service.SubmitResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return service.SubmitResponse{}, apiError(resp)
	}
	var sr service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	return sr, err
}

func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return fallback
}

// wait polls until the job reaches a terminal state.
func (c *client) wait(id string) (service.JobStatus, error) {
	for {
		var st service.JobStatus
		if err := c.getJSON("/v1/jobs/"+id, &st); err != nil {
			return st, err
		}
		switch st.State {
		case service.StateDone:
			return st, nil
		case service.StateFailed:
			return st, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// fetchResult downloads a finished job's result envelope.
func (c *client) fetchResult(id string) (service.JobResult, error) {
	var jr service.JobResult
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return jr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jr, apiError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&jr)
	return jr, err
}

// writeResult renders a result envelope: single runs write the
// byte-exact `triagesim -json` encoding to out (and the sampled series
// to telem, if requested); figure jobs render the table.
func writeResult(jr service.JobResult, out, telem string) error {
	if jr.Kind == service.KindFigure {
		if jr.Table == nil {
			return fmt.Errorf("figure result carries no table")
		}
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		jr.Table.Fprint(w)
		return nil
	}
	if jr.Result == nil {
		return fmt.Errorf("result envelope carries no simulation result")
	}
	enc := experiments.EncodeResult(*jr.Result)
	if out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	if telem != "" {
		if err := os.WriteFile(telem, []byte(jr.SamplesJSONL), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	bench := fs.String("bench", "", "workload name (single job)")
	traceID := fs.String("trace", "", "replay this corpus trace (sha256:<hex>) instead of a -bench generator; the server must run with -corpus")
	mix := fs.String("mix", "", "comma-separated per-core workload mix; entries are bench names or sha256:<hex> corpus traces (overrides -bench/-trace/-cores)")
	pf := fs.String("pf", "none", "prefetcher configuration (single job)")
	cores := fs.Int("cores", 1, "number of cores (rate mode when > 1)")
	warmup := fs.Uint64("warmup", 1_000_000, "warmup instructions per core")
	measure := fs.Uint64("measure", 5_000_000, "measured instructions per core")
	seed := fs.Uint64("seed", 42, "workload RNG seed")
	degree := fs.Int("degree", 0, "prefetch degree override (0 = default)")
	sample := fs.Uint64("sample", 0, "telemetry sampling interval in instructions (0 = off)")
	figure := fs.String("figure", "", "figure id (figure job; see `experiments -list`)")
	priority := fs.Int("priority", 0, "admission priority (higher runs first)")
	wait := fs.Bool("wait", false, "block until the job finishes and fetch its result")
	out := fs.String("o", "", "write the result to this file (default stdout)")
	telem := fs.String("telemetry", "", "write the sampled series (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec service.JobSpec
	if *figure != "" {
		spec = service.JobSpec{Kind: service.KindFigure, Figure: *figure, Priority: *priority}
	} else {
		if *bench == "" && *traceID == "" && *mix == "" {
			return fmt.Errorf("submit: need -bench, -trace, or -mix (single job) or -figure (figure job)")
		}
		spec = service.JobSpec{
			Kind: service.KindSingle,
			Run: &experiments.RunSpec{
				Bench:       *bench,
				PF:          *pf,
				Cores:       *cores,
				Warmup:      *warmup,
				Measure:     *measure,
				Seed:        *seed,
				Degree:      *degree,
				Trace:       *traceID,
				Mix:         splitMix(*mix),
				SampleEvery: *sample,
			},
			Priority: *priority,
		}
		if *mix != "" {
			spec.Run.Bench, spec.Run.Trace = "", ""
		}
	}
	sr, err := c.submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "triagectl: job %s %s (state %s, trace %s)\n", sr.ID, disposition(sr), sr.State, sr.Trace)
	if !*wait {
		fmt.Println(sr.ID)
		return nil
	}
	if _, err := c.wait(sr.ID); err != nil {
		return err
	}
	jr, err := c.fetchResult(sr.ID)
	if err != nil {
		return err
	}
	return writeResult(jr, *out, *telem)
}

// splitMix parses the comma-separated -mix value into RunSpec.Mix
// entries, trimming whitespace and dropping empties.
func splitMix(s string) []string {
	if s == "" {
		return nil
	}
	var mix []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			mix = append(mix, e)
		}
	}
	return mix
}

func disposition(sr service.SubmitResponse) string {
	switch {
	case sr.Cached:
		return "served from warm store"
	case sr.Deduped:
		return "deduped onto existing job"
	}
	return "admitted"
}

func (c *client) cmdStatus(args []string) error {
	if len(args) == 0 {
		return c.clusterStatus()
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: triagectl status [JOB-ID]  (no argument: cluster view)")
	}
	var st service.JobStatus
	if err := c.getJSON("/v1/jobs/"+args[0], &st); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(b))
	return nil
}

// clusterStatus renders the coordinator's cluster view: registered
// workers (with health/quarantine/drain state), active leases, and
// in-flight cells. Against a triaged started without -cluster the
// endpoint does not exist (404).
func (c *client) clusterStatus() error {
	var sv cluster.StatusView
	if err := c.getJSON("/cluster/v1/status", &sv); err != nil {
		return fmt.Errorf("cluster status (is triaged running with -cluster?): %w", err)
	}
	fmt.Printf("workers: %d    queued: %d  assigned: %d  requeued: %d  leases expired: %d  uploads rejected: %d\n",
		len(sv.Workers), sv.Queued, sv.Assigned, sv.Requeued, sv.Expired, sv.Rejected)
	for _, wv := range sv.Workers {
		state := "live"
		if !wv.Live {
			state = "stale"
		}
		if wv.Quarantined {
			state += " QUARANTINED"
		}
		if wv.Draining {
			state += " draining"
		}
		fmt.Printf("  %-6s %-24s slots %d  inflight %d  health %4.1f  last seen %5dms ago  %s\n",
			wv.ID, wv.Name, wv.Slots, wv.Inflight, wv.Health, wv.LastSeenMillis, state)
	}
	if len(sv.Leases) == 0 {
		fmt.Println("leases: none (no cells in flight)")
		return nil
	}
	fmt.Printf("leases: %d\n", len(sv.Leases))
	for _, lv := range sv.Leases {
		fmt.Printf("  %s on %-6s expires in %5dms  age %6dms  %s\n",
			lv.JobID, lv.Worker, lv.ExpiresInMillis, lv.AgeMillis, lv.Key)
	}
	return nil
}

// cmdWorkers manages the cluster fleet. The only verb today is drain:
// rotate workers out by name — they finish in-flight jobs, get no new
// ones, and their next poll tells them to exit.
func (c *client) cmdWorkers(args []string) error {
	if len(args) != 2 || args[0] != "drain" {
		return fmt.Errorf("usage: triagectl workers drain WORKER-NAME")
	}
	body, err := json.Marshal(cluster.DrainRequest{Name: args[1]})
	if err != nil {
		return err
	}
	resp, err := c.do(http.MethodPost, "/cluster/v1/workers/drain", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var dr cluster.DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return err
	}
	fmt.Printf("draining: %s\n", strings.Join(dr.Drained, " "))
	return nil
}

func (c *client) cmdWait(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: triagectl wait JOB-ID")
	}
	st, err := c.wait(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "triagectl: job %s done (%d instructions simulated)\n", st.ID, st.Instructions)
	return nil
}

func (c *client) cmdResult(args []string) error {
	fs := flag.NewFlagSet("result", flag.ContinueOnError)
	out := fs.String("o", "", "write the result to this file (default stdout)")
	telem := fs.String("telemetry", "", "write the sampled series (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: triagectl result [-o FILE] [-telemetry FILE] JOB-ID")
	}
	jr, err := c.fetchResult(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeResult(jr, *out, *telem)
}

func (c *client) cmdJobs(args []string) error {
	var js []service.JobStatus
	if err := c.getJSON("/v1/jobs", &js); err != nil {
		return err
	}
	for _, st := range js {
		fmt.Printf("%s  %-7s  p%-3d  %12d instr  %s\n", st.ID, st.State, st.Priority, st.Instructions, st.Key)
	}
	return nil
}

// cmdFigures batch-submits a whole figure suite and waits for all of
// it, make -j style: at most j figures in flight at once, the rest
// submitted as slots free up (and 429 backpressure respected).
func (c *client) cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	j := fs.Int("j", 2, "max figures in flight at once")
	outDir := fs.String("o", "", "write each figure's table to DIR/<id>.txt (default stdout)")
	priority := fs.Int("priority", 0, "admission priority for the whole batch")
	warmup := fs.Uint64("warmup", 0, "override single-core warmup instructions (0 = server default)")
	measure := fs.Uint64("measure", 0, "override single-core measured instructions (0 = server default)")
	mwarmup := fs.Uint64("mwarmup", 0, "override multi-core warmup instructions (0 = server default)")
	mmeasure := fs.Uint64("mmeasure", 0, "override multi-core measured instructions (0 = server default)")
	mixes := fs.Int("mixes", 0, "override the number of multi-programmed mixes (0 = server default)")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale *service.FigureScale
	if *warmup != 0 || *measure != 0 || *mwarmup != 0 || *mmeasure != 0 || *mixes != 0 || *seed != 0 {
		scale = &service.FigureScale{
			Warmup: *warmup, Measure: *measure,
			MultiWarmup: *mwarmup, MultiMeasure: *mmeasure,
			Mixes: *mixes, Seed: *seed,
		}
	}
	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	if len(ids) == 0 {
		return fmt.Errorf("usage: triagectl figures [-j N] [-o DIR] {all | FIGURE-ID...}")
	}
	if *j < 1 {
		*j = 1
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	sem := make(chan struct{}, *j)
	errs := make([]error, len(ids))
	var mu sync.Mutex // serializes stdout table output
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = func() error {
				sr, err := c.submit(service.JobSpec{Kind: service.KindFigure, Figure: id, Scale: scale, Priority: *priority})
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "triagectl: %s → job %s (%s)\n", id, sr.ID, disposition(sr))
				if _, err := c.wait(sr.ID); err != nil {
					return err
				}
				jr, err := c.fetchResult(sr.ID)
				if err != nil {
					return err
				}
				if *outDir != "" {
					return writeResult(jr, fileInDir(*outDir, id), "")
				}
				mu.Lock()
				defer mu.Unlock()
				return writeResult(jr, "", "")
			}()
		}(i, id)
	}
	wg.Wait()
	var failed int
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "triagectl: %s: %v\n", ids[i], err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d figures failed", failed, len(ids))
	}
	fmt.Fprintf(os.Stderr, "triagectl: all %d figures done\n", len(ids))
	return nil
}

func fileInDir(dir, id string) string {
	return dir + string(os.PathSeparator) + id + ".txt"
}

func (c *client) cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	prom := fs.Bool("prom", false, "print the Prometheus text exposition instead of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *prom {
		resp, err := c.do(http.MethodGet, "/metrics?format=prometheus", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}
	var m map[string]any
	if err := c.getJSON("/metrics", &m); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	fmt.Println(string(b))
	return nil
}

// cmdTrace fetches a job's span record from the flight recorder and
// renders it as a timeline relative to the first span.
func (c *client) cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	raw := fs.Bool("json", false, "print the raw trace dump instead of the timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: triagectl trace [-json] {JOB-ID | TRACE-ID}")
	}
	var d struct {
		TraceID string `json:"trace_id"`
		JobID   string `json:"job_id"`
		Spans   []struct {
			Name  string            `json:"name"`
			Start int64             `json:"start_ns"`
			End   int64             `json:"end_ns,omitempty"`
			Attrs map[string]string `json:"attrs,omitempty"`
		} `json:"spans"`
	}
	if err := c.getJSON("/debug/trace/"+fs.Arg(0), &d); err != nil {
		return err
	}
	if *raw {
		b, _ := json.MarshalIndent(d, "", "  ")
		fmt.Println(string(b))
		return nil
	}
	fmt.Printf("trace %s (job %s)\n", d.TraceID, d.JobID)
	if len(d.Spans) == 0 {
		return nil
	}
	t0 := d.Spans[0].Start
	for _, sp := range d.Spans {
		dur := ""
		if sp.End != 0 {
			dur = fmt.Sprintf("  [%v]", time.Duration(sp.End-sp.Start))
		}
		line := fmt.Sprintf("  %12v  %s%s", time.Duration(sp.Start-t0), sp.Name, dur)
		if len(sp.Attrs) > 0 {
			b, _ := json.Marshal(sp.Attrs)
			line += "  " + string(b)
		}
		fmt.Println(line)
	}
	return nil
}
