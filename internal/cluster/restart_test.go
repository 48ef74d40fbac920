package cluster

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/vfs"
)

// TestCoordinatorRestart pins the restart durability contract: jobs
// acknowledged by a cluster coordinator — queued ones the dispatcher
// never handed out AND leased-but-unfinished ones a worker held when
// the coordinator died — persist through queue.jsonl and re-admit on
// the next coordinator with the same content-derived ids, then run to
// completion without any cell simulating twice.
func TestCoordinatorRestart(t *testing.T) {
	mem := vfs.NewMem(42)
	specs := make([]service.JobSpec, 4)
	for i := range specs {
		specs[i] = tinySpec(uint64(400 + i))
	}

	// --- Incarnation 1: one worker that parks forever on its first
	// job, so when the coordinator dies the cluster holds one leased
	// Running job, one job in the dispatcher's hand, and the rest
	// queued. Nothing completes.
	srv1, err := service.New(service.Config{StoreDir: "store", FS: mem, QueueCap: 64, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := New(Config{Server: srv1, LeaseTTL: time.Minute, SweepEvery: time.Minute, PollWindow: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(coord1.Handler(srv1.Handler()))

	parked := make(chan struct{})
	var parkOnce sync.Once
	w1, _ := startWorker(t, ts1.URL, "doomed", func(c *WorkerConfig) {
		c.Gate = func(key string) {
			parkOnce.Do(func() { close(parked) })
			select {} // never returns: the worker dies with the coordinator
		}
	})

	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, _, err := srv1.Submit(cloneSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID()
	}
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never leased a job")
	}

	// Kill the first incarnation. Drain returns immediately (remote
	// jobs are not local goroutines); the leased job is still Running,
	// and every admission is on disk in queue.jsonl.
	w1.Kill()
	srv1.Drain()
	coord1.Stop()
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Incarnation 2 over the same disk: all four jobs re-admit
	// (none became durable), under the same content-derived ids.
	srv2, err := service.New(service.Config{StoreDir: "store", FS: mem, QueueCap: 64, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv2.Restored(); n != int64(len(specs)) {
		t.Fatalf("restarted coordinator re-admitted %d jobs, want %d", n, len(specs))
	}
	coord2, err := New(Config{Server: srv2, LeaseTTL: 5 * time.Second, SweepEvery: 50 * time.Millisecond, PollWindow: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tc2 := &testCluster{srv: srv2, coord: coord2, ts: httptest.NewServer(coord2.Handler(srv2.Handler()))}
	defer tc2.stop()

	var (
		mu       sync.Mutex
		simCount = make(map[string]int)
	)
	_, stopW := startWorker(t, tc2.ts.URL, "fresh", func(c *WorkerConfig) {
		c.Gate = func(key string) {
			if srv2.HasDurable(key) {
				t.Errorf("key %s re-simulated after its result was durable", key)
			}
			mu.Lock()
			simCount[key]++
			mu.Unlock()
		}
	})
	defer stopW()

	for i, id := range ids {
		j, ok := srv2.Lookup(id)
		if !ok {
			t.Fatalf("job %s (spec %d) not re-admitted under its old id", id, i)
		}
		if st := waitTerminal(t, srv2, j); st.State != service.StateDone {
			t.Fatalf("re-admitted job %s failed: %s", id, st.Error)
		}
	}

	// No double simulation: the incarnation-1 worker never simulated
	// (parked before its gate returned), so each key ran exactly once.
	mu.Lock()
	defer mu.Unlock()
	if len(simCount) != len(specs) {
		t.Errorf("%d distinct keys simulated, want %d", len(simCount), len(specs))
	}
	for key, n := range simCount {
		if n != 1 {
			t.Errorf("key %s simulated %d times across the restart, want 1", key, n)
		}
	}
}
