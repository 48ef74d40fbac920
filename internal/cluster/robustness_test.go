package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netfault"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestBackoffSeededSchedule pins the retry policy: the schedule is a
// pure function of the seed (two instances with the same seed agree
// delay for delay), every delay stays inside the ±25% jitter band of
// its capped exponential center — at the worker's poll policy and at
// triagectl's, including an attempt far enough past the cap to
// overflow a plain shift — and different seeds diverge, the property
// that de-correlates a fleet's reconnect stampede.
func TestBackoffSeededSchedule(t *testing.T) {
	attempts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 63}
	for _, pol := range []struct {
		name      string
		base, cap time.Duration
	}{
		{"worker", 20 * time.Millisecond, 640 * time.Millisecond},
		{"triagectl", 250 * time.Millisecond, 5 * time.Second},
	} {
		a := NewBackoff(42, pol.base, pol.cap)
		b := NewBackoff(42, pol.base, pol.cap)
		for _, i := range attempts {
			if da, db := a.Delay(i), b.Delay(i); da != db {
				t.Fatalf("%s attempt %d: same seed diverged (%v vs %v)", pol.name, i, da, db)
			}
		}

		c := NewBackoff(42, pol.base, pol.cap)
		for _, i := range attempts {
			center := pol.cap
			if i < 32 && pol.base<<i < pol.cap {
				center = pol.base << i
			}
			lo := time.Duration(float64(center) * 0.75)
			hi := time.Duration(float64(center) * 1.25)
			for k := 0; k < 100; k++ {
				if d := c.Delay(i); d < lo || d > hi {
					t.Fatalf("%s attempt %d: delay %v outside jitter band [%v, %v]", pol.name, i, d, lo, hi)
				}
			}
		}
	}

	const base, cap = 20 * time.Millisecond, 640 * time.Millisecond
	d := NewBackoff(43, base, cap)
	e := NewBackoff(42, base, cap)
	same := true
	for i := 0; i < 8; i++ {
		if d.Delay(i) != e.Delay(i) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}

	// Jitter bounds hold for the heartbeat interval too.
	f := NewBackoff(7, base, cap)
	for i := 0; i < 32; i++ {
		j := f.Jitter(time.Second, 0.2)
		if j < 800*time.Millisecond || j >= 1200*time.Millisecond {
			t.Fatalf("Jitter(1s, 0.2) = %v outside [800ms, 1200ms)", j)
		}
	}
}

// TestWorkerTokenDeterministic pins the register idempotency key: it
// derives from name and seed alone, so a retried or duplicate-delivered
// register is recognizable, while distinct workers never collide.
func TestWorkerTokenDeterministic(t *testing.T) {
	mk := func(name string, seed int64) *Worker {
		w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: name, JitterSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if a, b := mk("n", 7), mk("n", 7); a.token != b.token {
		t.Errorf("same name+seed produced different tokens: %q vs %q", a.token, b.token)
	}
	if a, b := mk("n", 7), mk("n", 8); a.token == b.token {
		t.Errorf("different seeds share token %q", a.token)
	}
	if a, b := mk("n", 7), mk("m", 7); a.token == b.token {
		t.Errorf("different names share token %q", a.token)
	}
}

// TestRegisterTokenIdempotent covers the coordinator side directly and
// over a duplicating wire: a re-delivered register with the same token
// returns the existing identity; no phantom worker is minted.
func TestRegisterTokenIdempotent(t *testing.T) {
	tc := startCluster(t, nil, nil)
	defer tc.stop()

	ws1 := tc.coord.register("n", 1, "tok-a")
	ws2 := tc.coord.register("n", 1, "tok-a")
	if ws1.id != ws2.id {
		t.Errorf("same token minted two workers: %s and %s", ws1.id, ws2.id)
	}
	ws3 := tc.coord.register("n", 1, "tok-b")
	if ws3.id == ws1.id {
		t.Error("different token reused the same worker id")
	}
	if n := len(tc.coord.Status().Workers); n != 2 {
		t.Errorf("status lists %d workers, want 2", n)
	}

	// Over the wire: every register is delivered twice; the worker still
	// registers exactly once.
	nf := netfault.New(tc.ts.Client().Transport, netfault.Plan{Seed: 5, PDuplicate: 1})
	nf.Match(func(req *http.Request) bool { return strings.HasSuffix(req.URL.Path, "/register") })
	_, stop := startWorker(t, tc.ts.URL, "dup-node", func(c *WorkerConfig) {
		c.Client = &http.Client{Transport: nf, Timeout: 5 * time.Minute}
		c.JitterSeed = 11
	})
	defer stop()
	deadline := time.Now().Add(10 * time.Second)
	for len(tc.coord.Status().Workers) < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if nf.Counters()["duplicate"] == 0 {
		t.Fatal("the wire never duplicated the register")
	}
	if n := len(tc.coord.Status().Workers); n != 3 {
		t.Errorf("status lists %d workers after a duplicated register, want 3", n)
	}
}

// assignLogEvents reads the coordinator's assignment audit log and
// returns the job ids of every line matching the given event, in file
// order.
func assignLogEvents(t *testing.T, tc *testCluster, event string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(tc.srv.StoreDirPath(), assignFile))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Event string `json:"event"`
			Job   string `json:"job"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad assign-log line %q: %v", line, err)
		}
		if rec.Event == event {
			out = append(out, rec.Job)
		}
	}
	return out
}

// recvJob pulls one job off the coordinator's dispatch channel, as a
// polling worker would.
func recvJob(t *testing.T, tc *testCluster) *service.Job {
	t.Helper()
	select {
	case j := <-tc.coord.dispatch:
		return j
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a dispatched job")
		return nil
	}
}

// sweepRequeueOrder runs one controlled mass-expiry: five jobs are
// leased to a phantom worker, their lease start times are rewritten to
// a crafted permutation (including a tie), everything is expired at
// once, and one sweep requeues them. It returns the requeue order from
// the audit log and the set of re-dispatched job ids.
func sweepRequeueOrder(t *testing.T) (requeued []string, expected []string) {
	t.Helper()
	tc := startCluster(t, nil, func(c *Config) {
		c.LeaseTTL = time.Hour
		c.SweepEvery = time.Hour // manual sweeps only
	})
	defer tc.stop()
	ws := tc.coord.register("phantom", 8, "")

	jobs := make([]*service.Job, 5)
	for i := range jobs {
		j, _, err := tc.srv.Submit(cloneSpec(tinySpec(uint64(9000 + i))))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	taken := make([]*service.Job, 5)
	for i := range taken {
		taken[i] = recvJob(t, tc)
		tc.coord.assign(taken[i], ws)
	}

	// Rewrite lease starts: job 2 oldest, jobs 0 and 4 tied (the id
	// breaks the tie), then 1, then 3 — and lapse every lease at once.
	now := time.Now()
	offsets := []time.Duration{-40 * time.Millisecond, -30 * time.Millisecond,
		-50 * time.Millisecond, -20 * time.Millisecond, -40 * time.Millisecond}
	tc.coord.mu.Lock()
	for i, j := range taken {
		l := tc.coord.leases[j.ID()]
		l.started = now.Add(offsets[i])
		l.expires = now.Add(-time.Second)
	}
	tc.coord.mu.Unlock()

	order := []int{2, 0, 4, 1, 3}
	if taken[4].ID() < taken[0].ID() {
		order = []int{2, 4, 0, 1, 3}
	}
	for _, i := range order {
		expected = append(expected, taken[i].ID())
	}

	tc.coord.sweep(time.Now())

	// Every job re-dispatches exactly once — a double requeue would
	// surface here as a duplicate id.
	seen := make(map[string]int)
	for i := 0; i < 5; i++ {
		seen[recvJob(t, tc).ID()]++
	}
	for _, j := range taken {
		if seen[j.ID()] != 1 {
			t.Errorf("job %s re-dispatched %d times, want 1", j.ID(), seen[j.ID()])
		}
	}
	return assignLogEvents(t, tc, "requeue"), expected
}

// TestSweepRequeueOrderDeterministic pins satellite 3: simultaneous
// lease expiries requeue in (start time, job id) order — never the Go
// map iteration order — no job is double-assigned, and a second
// identical run reproduces the exact sequence.
func TestSweepRequeueOrderDeterministic(t *testing.T) {
	got1, want := sweepRequeueOrder(t)
	if len(got1) != len(want) {
		t.Fatalf("requeued %d jobs, want %d", len(got1), len(want))
	}
	for i := range want {
		if got1[i] != want[i] {
			t.Fatalf("requeue order %v, want %v", got1, want)
		}
	}
	got2, _ := sweepRequeueOrder(t)
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("two identical runs diverged: %v vs %v", got1, got2)
		}
	}
}

// TestEventBatchDuplicateDelivery runs a sampled job over a wire that
// delivers every event batch twice. The per-lease sequence filter must
// fold each batch once: the feed's sample intervals stay strictly
// increasing and never exceed the sampler's true count.
func TestEventBatchDuplicateDelivery(t *testing.T) {
	tc := startCluster(t, nil, nil)
	defer tc.stop()

	nf := netfault.New(tc.ts.Client().Transport, netfault.Plan{Seed: 11, PDuplicate: 1})
	nf.Match(func(req *http.Request) bool { return strings.HasSuffix(req.URL.Path, "/events") })
	_, stop := startWorker(t, tc.ts.URL, "dup-events", func(c *WorkerConfig) {
		c.ProgressEvery = 5 * time.Millisecond
		c.Client = &http.Client{Transport: nf, Timeout: 5 * time.Minute}
		c.JitterSeed = 13
	})
	defer stop()

	spec := tinySpec(321)
	spec.Run.Measure = 200_000
	spec.Run.SampleEvery = 20_000
	j, _, err := tc.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, tc.srv, j); st.State != service.StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if nf.Counters()["duplicate"] == 0 {
		t.Fatal("the wire never duplicated an event batch")
	}
	samples := j.Feed().SamplesSince(0)
	if len(samples) == 0 {
		t.Fatal("job feed absorbed no samples")
	}
	if len(samples) > 10 {
		t.Errorf("feed holds %d samples for 10 intervals — duplicates folded in", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Interval <= samples[i-1].Interval {
			t.Errorf("sample intervals not strictly increasing at %d: %d after %d",
				i, samples[i].Interval, samples[i-1].Interval)
		}
	}
}

// TestWorkerDrainRotation is the fleet-rotation satellite: draining a
// worker by name makes its Run return on its own (no context cancel),
// the status view reflects it, and the rest of the fleet keeps serving
// jobs the drained worker never touches.
func TestWorkerDrainRotation(t *testing.T) {
	tc := startCluster(t, nil, func(c *Config) {
		c.PollWindow = 300 * time.Millisecond
	})
	defer tc.stop()
	client := tc.ts.Client()

	alpha, err := NewWorker(WorkerConfig{
		Coordinator: tc.ts.URL, Name: "alpha", Slots: 1, PoolWorkers: 2,
		ProgressEvery: 20 * time.Millisecond, PollRetry: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	alphaDone := make(chan struct{})
	go func() {
		defer close(alphaDone)
		alpha.Run(ctxA)
	}()
	_, stopBeta := startWorker(t, tc.ts.URL, "beta", nil)
	defer stopBeta()

	deadline := time.Now().Add(10 * time.Second)
	for len(tc.coord.Status().Workers) < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	// Warm the fleet, then settle: nothing queued when the drain lands.
	for i := 0; i < 2; i++ {
		j, _, err := tc.srv.Submit(cloneSpec(tinySpec(uint64(7000 + i))))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, tc.srv, j); st.State != service.StateDone {
			t.Fatalf("warmup job failed: %s", st.Error)
		}
	}

	var dr DrainResponse
	if code := postJSON(t, client, tc.ts.URL+"/cluster/v1/workers/drain",
		DrainRequest{Name: "alpha"}, &dr); code != http.StatusOK || len(dr.Drained) == 0 {
		t.Fatalf("drain alpha: HTTP %d, drained %v", code, dr.Drained)
	}
	for _, wv := range tc.coord.Status().Workers {
		if wv.Name == "alpha" && !wv.Draining {
			t.Error("status does not show alpha draining")
		}
	}

	// Alpha's next poll tells it to exit; Run returns without a cancel.
	select {
	case <-alphaDone:
	case <-time.After(30 * time.Second):
		t.Fatal("alpha never exited after drain")
	}
	if !alpha.Draining() {
		t.Error("alpha exited without observing the drain")
	}

	// The rotation: a replacement joins and the fleet keeps serving;
	// the drained worker's tally never moves again.
	_, stopGamma := startWorker(t, tc.ts.URL, "gamma", nil)
	defer stopGamma()
	before := alpha.JobsDone()
	for i := 0; i < 3; i++ {
		j, _, err := tc.srv.Submit(cloneSpec(tinySpec(uint64(7100 + i))))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, tc.srv, j); st.State != service.StateDone {
			t.Fatalf("post-drain job failed: %s", st.Error)
		}
	}
	if got := alpha.JobsDone(); got != before {
		t.Errorf("drained worker completed %d more jobs", got-before)
	}

	// Unknown names are a 404, not a silent no-op.
	if code := postJSON(t, client, tc.ts.URL+"/cluster/v1/workers/drain",
		DrainRequest{Name: "nobody"}, nil); code != http.StatusNotFound {
		t.Errorf("drain of unknown worker: HTTP %d, want 404", code)
	}
}

// TestHealthDecayReadmission pins the quarantine lifecycle: one
// verification reject quarantines a worker immediately, and pure decay
// (no explicit timer, no operator action) re-admits it about
// HalfLife·log2(penalty/threshold) later.
func TestHealthDecayReadmission(t *testing.T) {
	tc := startCluster(t, nil, func(c *Config) {
		c.HealthHalfLife = 50 * time.Millisecond
	})
	defer tc.stop()

	ws := tc.coord.register("flaky", 1, "")
	tc.coord.penalize(ws.id, healthVerifyReject, time.Now())

	sv := tc.coord.Status()
	if len(sv.Workers) != 1 || !sv.Workers[0].Quarantined {
		t.Fatalf("worker not quarantined after a verify reject: %+v", sv.Workers)
	}
	if got := tc.coord.mQuarantines.Value(); got != 1 {
		t.Errorf("quarantine entries = %d, want 1", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w := tc.coord.Status().Workers[0]; !w.Quarantined {
			return // decay re-admitted it
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("decay never re-admitted the worker")
}

// TestWorkerStopUploadsInFlightJob pins graceful worker shutdown (what
// triageworker does on SIGTERM): cancelling Run while a job is
// mid-execution stops the polling but not the job — its upload still
// reaches the coordinator, so the job is done by the time Run returns
// instead of sitting in running until its lease lapses and
// re-simulating elsewhere.
func TestWorkerStopUploadsInFlightJob(t *testing.T) {
	tc := startCluster(t, nil, nil)
	defer tc.stop()

	entered, release := make(chan struct{}), make(chan struct{})
	w, err := NewWorker(WorkerConfig{
		Coordinator: tc.ts.URL, Name: "stopping", Slots: 1, PoolWorkers: 2,
		ProgressEvery: 20 * time.Millisecond, PollRetry: 20 * time.Millisecond,
		Gate: func(string) { close(entered); <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		w.Run(ctx)
	}()

	j, _, err := tc.srv.Submit(tinySpec(8100))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never started the job")
	}
	cancel()
	close(release)
	select {
	case <-runDone:
	case <-time.After(30 * time.Second):
		t.Fatal("stopped worker never returned from Run")
	}
	if n := w.JobsDone(); n != 1 {
		t.Errorf("stopped worker uploaded %d jobs, want its in-flight one", n)
	}
	if st := tc.srv.Status(j); st.State != service.StateDone {
		t.Errorf("job is %s after its worker stopped, want done", st.State)
	}
}

// TestLateUploadBeforeRedispatch covers a requeued job that its first
// worker's late upload completes while the job waits in the dispatcher
// for a poll: the next assignment must not reopen it — the job stays
// done and no worker is leased a finished job.
func TestLateUploadBeforeRedispatch(t *testing.T) {
	tc := startCluster(t, nil, func(c *Config) {
		c.LeaseTTL = time.Hour
		c.SweepEvery = time.Hour // manual sweeps only
	})
	defer tc.stop()
	slow := tc.coord.register("slow", 1, "")
	next := tc.coord.register("next", 1, "")

	j, _, err := tc.srv.Submit(cloneSpec(tinySpec(9100)))
	if err != nil {
		t.Fatal(err)
	}
	tc.coord.assign(recvJob(t, tc), slow)
	tc.coord.mu.Lock()
	tc.coord.leases[j.ID()].expires = time.Now().Add(-time.Second)
	tc.coord.mu.Unlock()
	tc.coord.sweep(time.Now())
	redispatched := recvJob(t, tc)

	if !tc.srv.Complete(redispatched, service.JobResult{Kind: service.KindSingle, Result: &sim.Result{}}) {
		t.Fatal("the late upload did not complete the requeued job")
	}
	tc.coord.assign(redispatched, next)
	if st := tc.srv.StateOf(j); st != service.StateDone {
		t.Errorf("finished job reopened as %s by its re-dispatch", st)
	}
	if n := len(tc.coord.Status().Leases); n != 0 {
		t.Errorf("%d leases after assigning a finished job, want 0", n)
	}
}

// TestErrorUploadOnlyFromHolder covers the error-upload path: once a
// job's lease expired and it was re-assigned, an execution error from
// its first worker is a duplicate that leaves the job running, while
// the same error from the current holder fails the job, penalizes that
// worker, and leaves no lease or in-flight entry behind.
func TestErrorUploadOnlyFromHolder(t *testing.T) {
	tc := startCluster(t, nil, func(c *Config) {
		c.LeaseTTL = time.Hour
		c.SweepEvery = time.Hour // manual sweeps only
	})
	defer tc.stop()
	slow := tc.coord.register("slow", 1, "")
	next := tc.coord.register("next", 1, "")

	j, _, err := tc.srv.Submit(cloneSpec(tinySpec(9200)))
	if err != nil {
		t.Fatal(err)
	}
	tc.coord.assign(recvJob(t, tc), slow)
	tc.coord.mu.Lock()
	tc.coord.leases[j.ID()].expires = time.Now().Add(-time.Second)
	tc.coord.mu.Unlock()
	tc.coord.sweep(time.Now())
	if !tc.coord.assign(recvJob(t, tc), next) {
		t.Fatal("the requeued job was not re-assigned")
	}

	if resp := tc.coord.finish(j, ResultUpload{WorkerID: slow.id, Error: "slow worker failed"}); !resp.Duplicate {
		t.Errorf("error from the expired holder: %+v, want Duplicate", resp)
	}
	if st := tc.srv.StateOf(j); st != service.StateRunning {
		t.Fatalf("error from the expired holder moved the job to %s, want running", st)
	}

	const msg = "next worker failed"
	if resp := tc.coord.finish(j, ResultUpload{WorkerID: next.id, Error: msg}); resp.Duplicate || resp.Rejected {
		t.Errorf("error from the holder: %+v, want it honored", resp)
	}
	if st := tc.srv.Status(j); st.State != service.StateFailed || st.Error != msg {
		t.Errorf("job is %s with error %q, want failed with %q", st.State, st.Error, msg)
	}

	sv := tc.coord.Status()
	for _, wv := range sv.Workers {
		if wv.ID == next.id && math.Abs(wv.Health-healthExecFailure) > 0.01 {
			t.Errorf("holder's health = %.3f, want the %.1f execution-failure penalty", wv.Health, healthExecFailure)
		}
		if wv.Inflight != 0 {
			t.Errorf("worker %s still has %d jobs in flight", wv.ID, wv.Inflight)
		}
	}
	if len(sv.Leases) != 0 {
		t.Errorf("%d leases remain after the job failed, want 0", len(sv.Leases))
	}
	if fails := assignLogEvents(t, tc, "fail"); len(fails) != 1 || fails[0] != j.ID() {
		t.Errorf("assign log holds fail events %v, want exactly one for %s", fails, j.ID())
	}
}

// workerSeries returns cluster_workers and the per-worker in-flight
// series of both renderings of /metrics: the Prometheus text's sample
// names and the JSON's keys.
func workerSeries(t *testing.T, tc *testCluster) (workers float64, text, keys []string) {
	t.Helper()
	for _, line := range strings.Split(string(tc.get(t, "/metrics?format=prometheus")), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "triaged_cluster_workers":
			workers, _ = strconv.ParseFloat(f[1], 64)
		case len(f) == 2 && strings.HasPrefix(f[0], "triaged_worker_inflight_"):
			text = append(text, f[0])
		}
	}
	var m map[string]any
	tc.getJSON(t, "/metrics", &m)
	if m["cluster_workers"] != workers {
		t.Errorf("cluster_workers reads %v in the JSON, %v in the text", m["cluster_workers"], workers)
	}
	for k := range m {
		if strings.HasPrefix(k, "worker_inflight_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(text)
	sort.Strings(keys)
	return workers, text, keys
}

// TestSweepForgetsDepartedWorkers drives sweep by hand. Three workers
// registered and abandoned in turn are each forgotten once they have
// been silent for longer than a poll window plus a lease TTL, with
// their tokens and in-flight series; a worker holding a lease and one
// that polled within the last poll window stay.
func TestSweepForgetsDepartedWorkers(t *testing.T) {
	tc := startCluster(t, nil, func(c *Config) { c.SweepEvery = time.Hour }) // manual sweeps only
	defer tc.stop()
	c := tc.coord
	silent := c.cfg.PollWindow + c.cfg.LeaseTTL

	for _, name := range []string{"gone-a", "gone-b", "gone-c"} {
		ws := c.register(name, 1, "tok-"+name)
		if n, text, _ := workerSeries(t, tc); n != 1 || len(text) != 1 {
			t.Fatalf("after registering %s: %v workers, series %v", name, n, text)
		}
		c.mu.Lock()
		seen := ws.lastSeen
		c.mu.Unlock()
		c.sweep(seen.Add(silent))
		if n := len(c.Status().Workers); n != 1 {
			t.Fatalf("%s was forgotten after exactly a poll window plus a lease TTL", name)
		}
		c.sweep(seen.Add(silent + time.Millisecond))
	}
	if n, text, keys := workerSeries(t, tc); n != 0 || len(text) != 0 || len(keys) != 0 {
		t.Fatalf("after three departures: %v workers, text series %v, JSON keys %v", n, text, keys)
	}
	c.mu.Lock()
	tokens, gauges := len(c.tokens), len(c.gauges)
	c.mu.Unlock()
	if tokens != 0 || gauges != 0 {
		t.Fatalf("%d register tokens and %d gauge names outlive the workers", tokens, gauges)
	}

	leased := c.register("leased", 1, "tok-leased")
	poller := c.register("poller", 1, "tok-poller")
	if _, _, err := tc.srv.Submit(cloneSpec(tinySpec(9100))); err != nil {
		t.Fatal(err)
	}
	c.assign(recvJob(t, tc), leased)
	at := time.Now().Add(silent + time.Minute)
	c.mu.Lock()
	for _, l := range c.leases {
		l.expires = at.Add(time.Minute) // renewed by heartbeats
	}
	poller.lastSeen = at.Add(-c.cfg.PollWindow)
	c.mu.Unlock()
	c.sweep(at)
	n, text, keys := workerSeries(t, tc)
	want := []string{"triaged_worker_inflight_leased", "triaged_worker_inflight_poller"}
	if n != 2 || strings.Join(text, ",") != strings.Join(want, ",") ||
		strings.Join(keys, ",") != "worker_inflight_leased,worker_inflight_poller" {
		t.Fatalf("a leased and a polling worker: %v workers, text series %v, JSON keys %v", n, text, keys)
	}
}
