package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
)

// tinySpec is the canonical fast single-run job (mirrors the service
// package's test workload): distinct seeds give distinct content keys.
func tinySpec(seed uint64) service.JobSpec {
	return service.JobSpec{
		Kind: service.KindSingle,
		Run: &experiments.RunSpec{
			Bench: "mcf", PF: "none", Cores: 1,
			Warmup: 0, Measure: 30_000, Seed: seed, Degree: 1,
		},
	}
}

// localPayloads runs specs on a plain single-node server and returns
// each job's stored result payload — the byte-identity baseline every
// cluster test compares against.
func localPayloads(t *testing.T, specs []service.JobSpec) map[string][]byte {
	t.Helper()
	out, _ := localRuns(t, specs)
	return out
}

// localRuns is localPayloads that also returns each job's final
// status, by key.
func localRuns(t *testing.T, specs []service.JobSpec) (map[string][]byte, map[string]service.JobStatus) {
	t.Helper()
	srv, err := service.New(service.Config{StoreDir: t.TempDir(), QueueCap: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Drain(); srv.Close() }()
	out := make(map[string][]byte)
	statuses := make(map[string]service.JobStatus)
	for _, spec := range specs {
		j, _, err := srv.Submit(cloneSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, srv, j)
		if st.State != service.StateDone {
			t.Fatalf("baseline job %s failed: %s", st.Key, st.Error)
		}
		payload, ok := srv.Result(j)
		if !ok {
			t.Fatalf("baseline job %s has no result", st.Key)
		}
		out[st.Key] = payload
		statuses[st.Key] = st
	}
	return out, statuses
}

// cloneSpec deep-copies a JobSpec's Run so in-process Submit (which
// normalizes in place) cannot alias across submissions.
func cloneSpec(spec service.JobSpec) service.JobSpec {
	if spec.Run != nil {
		r := *spec.Run
		spec.Run = &r
	}
	return spec
}

func waitTerminal(t *testing.T, srv *service.Server, j *service.Job) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.Status(j)
		if st.State == service.StateDone || st.State == service.StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", j.ID())
	return service.JobStatus{}
}

// testCluster is one in-process coordinator stack: a server with no
// in-process slots, fronted by the cluster handler on a real HTTP
// listener.
type testCluster struct {
	srv   *service.Server
	coord *Coordinator
	ts    *httptest.Server
}

func startCluster(t *testing.T, smut func(*service.Config), cmut func(*Config)) *testCluster {
	t.Helper()
	scfg := service.Config{StoreDir: t.TempDir(), QueueCap: 64, Workers: 0}
	if smut != nil {
		smut(&scfg)
	}
	srv, err := service.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := Config{Server: srv, LeaseTTL: 5 * time.Second, SweepEvery: 50 * time.Millisecond, PollWindow: 2 * time.Second}
	if cmut != nil {
		cmut(&ccfg)
	}
	coord, err := New(ccfg)
	if err != nil {
		srv.Drain()
		srv.Close()
		t.Fatal(err)
	}
	return &testCluster{srv: srv, coord: coord, ts: httptest.NewServer(coord.Handler(srv.Handler()))}
}

// stop tears the stack down in drain order: queue closes (dispatcher
// exits), coordinator joins, listener closes.
func (tc *testCluster) stop() {
	tc.srv.Drain()
	tc.coord.Stop()
	tc.ts.Close()
	tc.srv.Close()
}

// startWorker launches a worker against the cluster with fast test
// pacing; the returned stop cancels it and waits for Run to return.
func startWorker(t *testing.T, url, name string, mut func(*WorkerConfig)) (*Worker, func()) {
	t.Helper()
	cfg := WorkerConfig{
		Coordinator:   url,
		Name:          name,
		Slots:         1,
		PoolWorkers:   2,
		ProgressEvery: 20 * time.Millisecond,
		PollRetry:     20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return w, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("worker did not stop")
		}
	}
}

// TestClusterDistributedByteIdentical is the tentpole contract: a
// batch of jobs distributed across two workers produces result
// payloads byte-identical to a single-node run, both workers actually
// execute work, every cell simulates exactly once cluster-wide, and a
// re-submission is served from the warm store without touching a
// worker.
func TestClusterDistributedByteIdentical(t *testing.T) {
	specs := make([]service.JobSpec, 6)
	for i := range specs {
		specs[i] = tinySpec(uint64(i + 1))
	}
	// One spec carries a sampled series so the SamplesJSONL leg of the
	// envelope is byte-compared too.
	specs[5].Run.SampleEvery = 10_000
	baseline := localPayloads(t, specs)

	tc := startCluster(t, nil, nil)
	defer tc.stop()

	simCount := make(chan string, 64)
	gate := func(key string) {
		if tc.srv.HasDurable(key) {
			t.Errorf("key %s re-simulated after its result was durable", key)
		}
		simCount <- key
	}
	_, stopA := startWorker(t, tc.ts.URL, "alpha", func(c *WorkerConfig) { c.Gate = gate })
	_, stopB := startWorker(t, tc.ts.URL, "beta", func(c *WorkerConfig) { c.Gate = gate })
	defer stopB()
	defer stopA()

	jobs := make([]*service.Job, len(specs))
	for i, spec := range specs {
		j, _, err := tc.srv.Submit(cloneSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		st := waitTerminal(t, tc.srv, j)
		if st.State != service.StateDone {
			t.Fatalf("job %d failed: %s", i, st.Error)
		}
		payload, ok := tc.srv.Result(j)
		if !ok {
			t.Fatalf("job %d has no result", i)
		}
		if want := baseline[st.Key]; !bytes.Equal(payload, want) {
			t.Errorf("job %d (%s): cluster payload differs from the single-node run", i, st.Key)
		}
	}

	// Both workers pulled work, and the status view reflects them.
	sv := tc.coord.Status()
	if len(sv.Workers) != 2 {
		t.Fatalf("status lists %d workers, want 2", len(sv.Workers))
	}
	if sv.Assigned < int64(len(specs)) {
		t.Errorf("status assigned %d, want >= %d", sv.Assigned, len(specs))
	}

	// Warm re-submission: no worker involved — it joins the retained
	// done job (or materializes from the store) without a simulation.
	j, disp, err := tc.srv.Submit(cloneSpec(specs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if disp != service.DispDeduped && disp != service.DispCached {
		t.Errorf("re-submission disposition %v, want deduped or cached", disp)
	}
	if st := waitTerminal(t, tc.srv, j); st.State != service.StateDone {
		t.Errorf("re-submitted job not done: %+v", st)
	}

	// Every cell simulated exactly once cluster-wide (the re-submission
	// added none).
	close(simCount)
	perKey := make(map[string]int)
	for key := range simCount {
		perKey[key]++
	}
	if len(perKey) != len(specs) {
		t.Errorf("simulated %d distinct keys, want %d", len(perKey), len(specs))
	}
	for key, n := range perKey {
		if n != 1 {
			t.Errorf("key %s simulated %d times, want 1", key, n)
		}
	}
}

// TestClusterFigureByteIdentical runs one scaled-down figure job
// through a worker and compares the stored table payload with the
// single-node figure path byte for byte, and the job's reported
// instruction count with the single-node job's.
func TestClusterFigureByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("figure simulation skipped in -short mode")
	}
	spec := service.JobSpec{
		Kind:   service.KindFigure,
		Figure: "fig05",
		Scale: &service.FigureScale{
			Warmup: 50_000, Measure: 50_000,
			MultiWarmup: 25_000, MultiMeasure: 25_000, Mixes: 1,
		},
	}
	baseline, local := localRuns(t, []service.JobSpec{spec})

	tc := startCluster(t, nil, nil)
	defer tc.stop()
	_, stopW := startWorker(t, tc.ts.URL, "figs", nil)
	defer stopW()

	j, _, err := tc.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, tc.srv, j)
	if st.State != service.StateDone {
		t.Fatalf("figure job failed: %s", st.Error)
	}
	payload, ok := tc.srv.Result(j)
	if !ok {
		t.Fatal("figure job has no result")
	}
	if !bytes.Equal(payload, baseline[st.Key]) {
		t.Error("cluster figure payload differs from the single-node run")
	}
	if want := local[st.Key].Instructions; st.Instructions != want || want == 0 {
		t.Errorf("figure job reports %d instructions on a worker and %d locally, want equal and nonzero",
			st.Instructions, want)
	}
}

// TestClusterProgressStreams pins the telemetry leg: a worker-run job
// folds progress into the job feed (instructions advance) and sampled
// series arrive for SSE consumers.
func TestClusterProgressStreams(t *testing.T) {
	tc := startCluster(t, nil, nil)
	defer tc.stop()
	_, stopW := startWorker(t, tc.ts.URL, "prog", func(c *WorkerConfig) {
		c.ProgressEvery = 5 * time.Millisecond
	})
	defer stopW()

	spec := tinySpec(77)
	spec.Run.Measure = 200_000
	spec.Run.SampleEvery = 20_000
	j, _, err := tc.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, tc.srv, j)
	if st.State != service.StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Instructions == 0 {
		t.Error("job feed saw no progress from the worker")
	}
	if samples := j.Feed().SamplesSince(0); len(samples) == 0 {
		t.Error("job feed absorbed no samples from the worker")
	}
}

// TestClusterMetricsRegistered pins the cluster series on the shared
// registry, including the per-worker in-flight gauge, and the
// coordinator's observability contract for a remotely run job: the
// registry renders valid Prometheus text, and the job's trace reads in
// causal order — measure-start included, from the worker's relayed
// samples — with its run span naming the worker.
func TestClusterMetricsRegistered(t *testing.T) {
	tc := startCluster(t, nil, nil)
	defer tc.stop()
	_, stopW := startWorker(t, tc.ts.URL, "metrics-node", nil)
	defer stopW()

	spec := tinySpec(5)
	spec.Run.SampleEvery = 10_000
	j, _, err := tc.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, tc.srv, j); st.State != service.StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}

	tr, ok := tc.srv.FlightRecorder().Get(j.ID())
	if !ok {
		t.Fatal("job's trace is not in the flight recorder")
	}
	d := tr.Dump()
	if err := obs.ValidateTrace(d, "admit", "queue-wait", "run", "measure-start", "store-put", "done"); err != nil {
		t.Error(err)
	}
	for _, sp := range d.Spans {
		if sp.Name == "run" && !strings.HasPrefix(sp.Attrs["worker"], "metrics-node/") {
			t.Errorf("run span worker = %q, want metrics-node/<id>", sp.Attrs["worker"])
		}
	}

	var prom bytes.Buffer
	if err := tc.srv.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(bytes.NewReader(prom.Bytes())); err != nil {
		t.Errorf("coordinator exposition: %v", err)
	}
	if !strings.Contains(prom.String(), "\ntriaged_worker_inflight_metrics_node ") {
		t.Error("exposition lacks the per-worker in-flight gauge")
	}

	snap := tc.srv.Registry().Snapshot()
	for _, name := range []string{
		"triaged_cluster_workers",
		"triaged_cluster_leases",
		"triaged_cluster_assigned_total",
		"triaged_cluster_requeued_total",
		"triaged_cluster_results_total",
		"triaged_worker_inflight_metrics_node",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	if v, _ := snap["triaged_cluster_results_total"].(float64); v < 1 {
		t.Errorf("triaged_cluster_results_total = %v, want >= 1", snap["triaged_cluster_results_total"])
	}
	// Re-registering the same worker name must not panic the registry
	// (duplicate gauge guard).
	_, stopW2 := startWorker(t, tc.ts.URL, "metrics-node", nil)
	stopW2()
}

// makeTrace materializes a small deterministic pointer-ish trace into
// the corpus at dir and returns its content id.
func makeTrace(t *testing.T, dir string) string {
	t.Helper()
	c, err := trace.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.Create()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		r := trace.Record{PC: 0x4000 + uint64(i%7)*4, Op: trace.NonMem}
		if i%3 == 0 {
			r.Op = trace.Load
			r.Addr = mem.Addr(0x10000 + (i%257)*64)
		}
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	id, err := cw.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestClusterTraceAwareMix submits a mix job naming a corpus trace for
// one core and a generator bench for the other: the worker's local
// corpus lacks the trace, fetches it from the coordinator by content
// hash, verifies it on ingest, and the stored result is byte-identical
// to a single-node run over the same corpus.
func TestClusterTraceAwareMix(t *testing.T) {
	coordCorpus := t.TempDir()
	id := makeTrace(t, coordCorpus)
	// The process-global corpus is what RunSpec resolution reads; the
	// coordinator also serves /cluster/v1/traces/{id} from it.
	if err := experiments.SetTraceCorpus(coordCorpus); err != nil {
		t.Fatal(err)
	}

	spec := service.JobSpec{
		Kind: service.KindSingle,
		Run: &experiments.RunSpec{
			PF: "none", Mix: []string{id, "mcf"},
			Warmup: 0, Measure: 30_000, Seed: 9, Degree: 1,
		},
	}
	baseline := localPayloads(t, []service.JobSpec{spec})

	tc := startCluster(t, nil, nil)
	defer tc.stop()

	workerCorpusDir := t.TempDir()
	workerCorpus, err := trace.OpenCorpus(workerCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	_, stopW := startWorker(t, tc.ts.URL, "mixer", func(c *WorkerConfig) { c.Corpus = workerCorpus })
	defer stopW()

	j, _, err := tc.srv.Submit(cloneSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, tc.srv, j)
	if st.State != service.StateDone {
		t.Fatalf("mix job failed: %s", st.Error)
	}
	payload, ok := tc.srv.Result(j)
	if !ok {
		t.Fatal("mix job has no result")
	}
	if !bytes.Equal(payload, baseline[st.Key]) {
		t.Error("cluster mix payload differs from the single-node run")
	}
	// The worker pulled the trace into its own corpus, content-verified.
	if !workerCorpus.Has(id) {
		t.Errorf("worker corpus never ingested %s", id)
	}
}
