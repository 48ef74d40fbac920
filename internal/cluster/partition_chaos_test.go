package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netfault"
	"repro/internal/service"
	"repro/internal/sim"
)

// This file is the seeded partition chaos matrix: three scenarios
// (coordinator unreachable mid-job, worker partitioned after its
// upload started, asymmetric partition during heartbeat), each run
// over three seeds, all asserting the tentpole guarantees — zero
// acknowledged jobs lost, zero post-durable re-simulation, every
// payload byte-identical to a fault-free single-node run — plus the
// corrupted-upload quarantine path.

// chaosRig bundles the per-cycle scaffolding every partition scenario
// shares: a fast-lease cluster over a fresh store, a fault-free
// baseline, a counting gate that forbids post-durable re-simulation,
// and a victim gate that parks the victim worker's first job until
// the scenario releases it.
type chaosRig struct {
	t        *testing.T
	cycle    int
	tc       *testCluster
	specs    []service.JobSpec
	baseline map[string][]byte

	mu       sync.Mutex
	simCount map[string]int

	victimArmed   chan struct{}
	victimRelease chan struct{}
	armedOnce     sync.Once
}

func newChaosRig(t *testing.T, cycle, jobs int, seedBase uint64) *chaosRig {
	t.Helper()
	specs := make([]service.JobSpec, jobs)
	for i := range specs {
		specs[i] = tinySpec(seedBase + uint64(i))
	}
	r := &chaosRig{
		t:             t,
		cycle:         cycle,
		specs:         specs,
		baseline:      localPayloads(t, specs),
		simCount:      make(map[string]int),
		victimArmed:   make(chan struct{}),
		victimRelease: make(chan struct{}),
	}
	r.tc = startCluster(t, nil, func(c *Config) {
		c.LeaseTTL = 500 * time.Millisecond
		c.SweepEvery = 50 * time.Millisecond
	})
	return r
}

func (r *chaosRig) countingGate(key string) {
	if r.tc.srv.HasDurable(key) {
		r.t.Errorf("cycle %d: key %s re-simulated after its result was durable", r.cycle, key)
	}
	r.mu.Lock()
	r.simCount[key]++
	r.mu.Unlock()
}

// victimGate counts like countingGate, then parks the victim's first
// job until the scenario releases it — the instant the partition
// closes around a job mid-flight.
func (r *chaosRig) victimGate(key string) {
	r.countingGate(key)
	r.armedOnce.Do(func() {
		close(r.victimArmed)
		<-r.victimRelease
	})
}

// faultyWorker starts a worker whose HTTP client runs through a seeded
// netfault transport; match scopes injection (nil: every cluster RPC).
func (r *chaosRig) faultyWorker(name string, plan netfault.Plan, match func(*http.Request) bool, gate func(string)) (*Worker, *netfault.Transport, func()) {
	r.t.Helper()
	nf := netfault.New(r.tc.ts.Client().Transport, plan)
	if match != nil {
		nf.Match(match)
	}
	w, stop := startWorker(r.t, r.tc.ts.URL, name, func(c *WorkerConfig) {
		c.Gate = gate
		c.Client = &http.Client{Transport: nf, Timeout: 5 * time.Minute}
		c.JitterSeed = plan.Seed*2 + 1
	})
	return w, nf, stop
}

func (r *chaosRig) waitWorkers(n int) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(r.tc.coord.Status().Workers) < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(r.tc.coord.Status().Workers); got < n {
		r.t.Fatalf("cycle %d: only %d of %d workers registered", r.cycle, got, n)
	}
}

func (r *chaosRig) submitAll() []*service.Job {
	r.t.Helper()
	jobs := make([]*service.Job, 0, len(r.specs))
	for _, spec := range r.specs {
		j, _, err := r.tc.srv.Submit(cloneSpec(spec))
		if err != nil {
			r.t.Fatalf("cycle %d: submit: %v", r.cycle, err)
		}
		jobs = append(jobs, j) // acknowledged
	}
	return jobs
}

func (r *chaosRig) awaitArmed() {
	r.t.Helper()
	select {
	case <-r.victimArmed:
	case <-time.After(30 * time.Second):
		r.t.Fatalf("cycle %d: victim never picked up a job", r.cycle)
	}
}

// awaitByteIdentical is the acknowledged-jobs contract: every
// submission reaches done with a payload byte-equal to the fault-free
// single-node baseline.
func (r *chaosRig) awaitByteIdentical(jobs []*service.Job) {
	r.t.Helper()
	for i, j := range jobs {
		st := waitTerminal(r.t, r.tc.srv, j)
		if st.State != service.StateDone {
			r.t.Fatalf("cycle %d: acknowledged job %d lost (state %s: %s)", r.cycle, i, st.State, st.Error)
		}
		payload, ok := r.tc.srv.Result(j)
		if !ok {
			r.t.Fatalf("cycle %d: job %d has no result", r.cycle, i)
		}
		if !bytes.Equal(payload, r.baseline[st.Key]) {
			r.t.Errorf("cycle %d: job %d payload differs from the fault-free baseline", r.cycle, i)
		}
	}
}

// assertSims checks the exactly-once ledger: every key simulated by
// someone, none more than twice, and at most maxDoubles keys twice
// (the partitioned job re-run elsewhere).
func (r *chaosRig) assertSims(maxDoubles int) {
	r.t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	doubles := 0
	for key, n := range r.simCount {
		if n > 2 {
			r.t.Errorf("cycle %d: key %s simulated %d times", r.cycle, key, n)
		}
		if n == 2 {
			doubles++
		}
	}
	if len(r.simCount) != len(r.specs) {
		r.t.Errorf("cycle %d: %d distinct keys simulated, want %d", r.cycle, len(r.simCount), len(r.specs))
	}
	if doubles > maxDoubles {
		r.t.Errorf("cycle %d: %d keys simulated twice, want at most %d", r.cycle, doubles, maxDoubles)
	}
}

func waitCount(f func() int64, min int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f() >= min {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f() >= min
}

// TestChaosCoordinatorUnreachable cuts a worker off from the
// coordinator entirely while it holds a job mid-run: heartbeats,
// events, and uploads all fail until the partition heals. The job must
// survive — either the worker's retried upload lands after Restore, or
// the lease lapses and the survivor re-runs it — with no payload drift
// and no post-durable re-simulation.
func TestChaosCoordinatorUnreachable(t *testing.T) {
	for cycle := 0; cycle < 3; cycle++ {
		r := newChaosRig(t, cycle, 4, uint64(1000+cycle*100))
		noise := netfault.Plan{Seed: int64(cycle + 1), PDelay: 0.2, Delay: 2 * time.Millisecond}
		_, nfVictim, stopVictim := r.faultyWorker("victim", noise, nil, r.victimGate)
		survivorNoise := netfault.Plan{Seed: int64(cycle + 101), PDelay: 0.2, Delay: 2 * time.Millisecond}
		_, _, stopSurvivor := r.faultyWorker("survivor", survivorNoise, nil, r.countingGate)
		r.waitWorkers(2)

		jobs := r.submitAll()
		r.awaitArmed()
		nfVictim.Cut() // the coordinator vanishes from the victim's view
		close(r.victimRelease)
		// Heal inside the lease TTL: the usual resolution is the victim's
		// backed-off upload retry landing; a slow run may instead lapse
		// the lease and requeue, which is equally acceptable.
		time.Sleep(250 * time.Millisecond)
		nfVictim.Restore()

		r.awaitByteIdentical(jobs)
		if nfVictim.Counters()["cut"] == 0 {
			t.Errorf("cycle %d: partition never intercepted any victim traffic", cycle)
		}
		r.assertSims(1)

		stopSurvivor()
		stopVictim()
		r.tc.stop()
	}
}

// TestChaosPartitionDuringUpload opens a one-way partition scoped to
// the result upload: the upload is delivered and executed but its
// acknowledgment is lost — the ambiguous-delivery case. The
// coordinator completes the job on the first delivery; the worker's
// retries must resolve as duplicates, and nothing may re-simulate.
func TestChaosPartitionDuringUpload(t *testing.T) {
	matchResult := func(req *http.Request) bool {
		return strings.HasSuffix(req.URL.Path, "/result")
	}
	for cycle := 0; cycle < 3; cycle++ {
		r := newChaosRig(t, cycle, 4, uint64(2000+cycle*100))
		_, nfVictim, stopVictim := r.faultyWorker("victim", netfault.Plan{Seed: int64(cycle + 1)}, matchResult, r.victimGate)
		noise := netfault.Plan{Seed: int64(cycle + 101), PDelay: 0.2, Delay: 2 * time.Millisecond}
		_, _, stopSurvivor := r.faultyWorker("survivor", noise, nil, r.countingGate)
		r.waitWorkers(2)

		jobs := r.submitAll()
		r.awaitArmed()
		nfVictim.CutOneWay() // uploads execute, acks vanish
		close(r.victimRelease)

		// The first ack-lost delivery completes the job; the worker's
		// retried upload must surface as a duplicate, not a second result.
		if !waitCount(r.tc.coord.mDupedUp.Value, 1, 10*time.Second) {
			t.Errorf("cycle %d: retried upload never resolved as a duplicate", cycle)
		}
		nfVictim.Restore()

		r.awaitByteIdentical(jobs)
		if nfVictim.Counters()["cut-oneway"] == 0 {
			t.Errorf("cycle %d: one-way partition never intercepted an upload", cycle)
		}
		// Ambiguous delivery must never cause a re-simulation: the upload
		// landed, so every key runs exactly once.
		r.assertSims(0)

		stopSurvivor()
		stopVictim()
		r.tc.stop()
	}
}

// TestChaosAsymmetricHeartbeat blackholes only the victim's heartbeats
// while it holds a job: polls and uploads still flow, but the lease
// lapses and the sweep requeues the job onto the survivor. When the
// zombie copy finally finishes, its late upload must land as a
// harmless duplicate.
func TestChaosAsymmetricHeartbeat(t *testing.T) {
	matchHeartbeat := func(req *http.Request) bool {
		return strings.HasSuffix(req.URL.Path, "/heartbeat")
	}
	for cycle := 0; cycle < 3; cycle++ {
		r := newChaosRig(t, cycle, 4, uint64(3000+cycle*100))
		_, nfVictim, stopVictim := r.faultyWorker("victim", netfault.Plan{Seed: int64(cycle + 1)}, matchHeartbeat, r.victimGate)
		noise := netfault.Plan{Seed: int64(cycle + 101), PDelay: 0.2, Delay: 2 * time.Millisecond}
		_, _, stopSurvivor := r.faultyWorker("survivor", noise, nil, r.countingGate)
		r.waitWorkers(2)

		nfVictim.Cut() // heartbeats blackholed from the start
		jobs := r.submitAll()
		r.awaitArmed()

		// With the victim parked and silent, its lease must lapse and the
		// job requeue onto the survivor.
		if !waitCount(r.tc.coord.mRequeued.Value, 1, 10*time.Second) {
			t.Fatalf("cycle %d: heartbeat partition never lapsed the lease", cycle)
		}
		r.awaitByteIdentical(jobs)

		// Release the zombie: its late upload is a duplicate, never a
		// second simulation of a durable key (the gate enforces that).
		close(r.victimRelease)
		if !waitCount(r.tc.coord.mDupedUp.Value, 1, 10*time.Second) {
			t.Errorf("cycle %d: zombie upload never resolved as a duplicate", cycle)
		}
		nfVictim.Restore()

		if r.tc.coord.mExpired.Value() == 0 {
			t.Errorf("cycle %d: no lease expiry was recorded", cycle)
		}
		if nfVictim.Counters()["cut"] == 0 {
			t.Errorf("cycle %d: heartbeat partition never intercepted traffic", cycle)
		}
		r.assertSims(1)

		stopSurvivor()
		stopVictim()
		r.tc.stop()
	}
}

// postJSON is a bare-hands cluster RPC for tests that need a worker
// the Worker type would never be: misbehaving on purpose.
func postJSON(t *testing.T, client *http.Client, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestChaosCorruptedUploadQuarantine is the verified-upload acceptance
// path: a worker uploads a structurally valid envelope whose payload
// hash does not match. The coordinator must reject it before anything
// persists, requeue the job, quarantine the worker (its polls come
// back empty), and let an honest worker re-run the job to a verified,
// byte-identical result.
func TestChaosCorruptedUploadQuarantine(t *testing.T) {
	spec := tinySpec(4242)
	baseline := localPayloads(t, []service.JobSpec{spec})

	tc := startCluster(t, nil, func(c *Config) {
		c.PollWindow = 300 * time.Millisecond
	})
	defer tc.stop()
	client := tc.ts.Client()

	var reg RegisterResponse
	if code := postJSON(t, client, tc.ts.URL+"/cluster/v1/register",
		RegisterRequest{Name: "evil", Slots: 1, Token: "evil-token"}, &reg); code != http.StatusOK {
		t.Fatalf("evil register: HTTP %d", code)
	}

	j, _, err := tc.srv.Submit(cloneSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	var a PollResponse
	if code := postJSON(t, client, tc.ts.URL+"/cluster/v1/poll",
		PollRequest{WorkerID: reg.WorkerID}, &a); code != http.StatusOK || a.JobID == "" {
		t.Fatalf("evil worker never got the job (HTTP %d, job %q)", code, a.JobID)
	}

	// A well-formed envelope with the right fingerprint but a payload
	// hash that cannot match its canonical encoding.
	up := ResultUpload{
		WorkerID:      reg.WorkerID,
		Result:        &service.JobResult{Kind: service.KindSingle, Result: &sim.Result{}},
		Fingerprint:   tc.srv.Fingerprint(),
		PayloadSHA256: strings.Repeat("0", 64),
	}
	var rr ResultResponse
	if code := postJSON(t, client, tc.ts.URL+"/cluster/v1/jobs/"+a.JobID+"/result", up, &rr); code != http.StatusOK {
		t.Fatalf("corrupt upload: HTTP %d", code)
	}
	if !rr.Rejected || rr.Reason == "" {
		t.Fatalf("corrupt upload not rejected: %+v", rr)
	}
	if tc.srv.HasDurable(j.Key()) {
		t.Fatal("corrupted payload reached the durable store")
	}
	if got := tc.coord.mRejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if got := tc.coord.mRequeued.Value(); got != 1 {
		t.Errorf("requeued counter = %d, want 1 (the job must requeue)", got)
	}
	sv := tc.coord.Status()
	if len(sv.Workers) != 1 || !sv.Workers[0].Quarantined {
		t.Fatalf("evil worker not quarantined: %+v", sv.Workers)
	}

	// A quarantined worker polls into a held-empty window: no work.
	var again PollResponse
	if code := postJSON(t, client, tc.ts.URL+"/cluster/v1/poll",
		PollRequest{WorkerID: reg.WorkerID}, &again); code != http.StatusNoContent || again.JobID != "" {
		t.Fatalf("quarantined worker still got work (HTTP %d, job %q)", code, again.JobID)
	}

	// An honest worker picks the requeued job up and completes it to a
	// verified, byte-identical result.
	var (
		mu   sync.Mutex
		sims int
	)
	_, stopHonest := startWorker(t, tc.ts.URL, "honest", func(c *WorkerConfig) {
		c.Gate = func(key string) {
			mu.Lock()
			sims++
			mu.Unlock()
		}
	})
	defer stopHonest()

	st := waitTerminal(t, tc.srv, j)
	if st.State != service.StateDone {
		t.Fatalf("job never recovered from the corrupt upload: %s", st.Error)
	}
	payload, ok := tc.srv.Result(j)
	if !ok {
		t.Fatal("job has no result")
	}
	if !bytes.Equal(payload, baseline[st.Key]) {
		t.Error("re-run payload differs from the single-node baseline")
	}
	mu.Lock()
	if sims != 1 {
		t.Errorf("honest worker simulated %d times, want 1", sims)
	}
	mu.Unlock()
}
