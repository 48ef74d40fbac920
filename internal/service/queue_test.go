package service

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func mkJob(id string, priority int, seq uint64) *Job {
	return &Job{id: id, spec: JobSpec{Priority: priority}, seq: seq}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue()
	q.push(mkJob("low-1", 0, 1))
	q.push(mkJob("high", 5, 2))
	q.push(mkJob("low-2", 0, 3))
	q.push(mkJob("mid", 3, 4))
	want := []string{"high", "mid", "low-1", "low-2"} // priority desc, FIFO within
	for _, w := range want {
		if got := q.pop(); got.id != w {
			t.Fatalf("pop = %s, want %s", got.id, w)
		}
	}
}

func TestQueueCloseUnblocksAndKeepsItems(t *testing.T) {
	q := newJobQueue()
	popped := make(chan *Job, 1)
	go func() { popped <- q.pop() }()
	time.Sleep(10 * time.Millisecond)
	q.push(mkJob("a", 0, 1))
	if j := <-popped; j == nil || j.id != "a" {
		t.Fatalf("blocked pop got %v, want job a", j)
	}
	// Drain semantics: close returns nil from pop even with items left.
	q.push(mkJob("b", 0, 2))
	q.close()
	if j := q.pop(); j != nil {
		t.Fatalf("pop after close = %v, want nil", j)
	}
	if q.len() != 1 {
		t.Fatalf("close dropped queued items: len %d, want 1", q.len())
	}
}

// TestConcurrentSubmitters hammers the admission path from many
// goroutines under -race: every distinct job is simulated exactly
// once, duplicates dedup, and nothing is lost.
func TestConcurrentSubmitters(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.QueueCap = 64
		c.Workers = 4
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const distinct = 12
	const submitters = 6
	var wg sync.WaitGroup
	ids := make([][]string, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(1); i <= distinct; i++ {
				resp, sr := postJob(t, ts, tinySpec(i))
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
					t.Errorf("submitter %d job %d: status %d", g, i, resp.StatusCode)
					continue
				}
				ids[g] = append(ids[g], sr.ID)
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, list := range ids {
		for _, id := range list {
			seen[id] = true
			waitDone(t, ts, id)
		}
	}
	if len(seen) != distinct {
		t.Errorf("observed %d distinct job ids, want %d", len(seen), distinct)
	}
	m := srv.Registry().Snapshot()
	if got := m["completed"].(int64); got != distinct {
		t.Errorf("completed %d simulations, want %d (dedup must collapse the rest)", got, distinct)
	}
	if got := m["store_len"]; got != float64(distinct) {
		t.Errorf("store holds %v results, want %d", got, distinct)
	}
}

// TestDrainPersistsQueuedJobs is the ISSUE acceptance scenario: under
// mixed load, a drain lets in-flight jobs complete, queued jobs survive
// the restart, and no job is lost or simulated twice.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan string, 8)
	srv1, err := New(Config{
		StoreDir: dir, QueueCap: 8, Workers: 1,
		Gate: func(key string) { started <- key; <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	// One job in flight (held at the gate), three more queued behind it.
	var ids []string
	for i := uint64(1); i <= 4; i++ {
		resp, sr := postJob(t, ts1, tinySpec(i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("job %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, sr.ID)
	}
	<-started // worker holds job 1

	drained := make(chan DrainStats)
	go func() { drained <- srv1.Drain() }()
	time.Sleep(20 * time.Millisecond) // let the drain close the queue
	close(gate)                       // release the in-flight job
	stats := <-drained
	ts1.Close()
	if stats.Finished != 1 {
		t.Errorf("drain finished %d jobs, want 1 (the in-flight one)", stats.Finished)
	}
	if stats.Queued != 3 {
		t.Errorf("drain left %d queued jobs, want 3", stats.Queued)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory: queued jobs are re-admitted and run;
	// the finished one is served from the store, not re-simulated.
	srv2, err := New(Config{StoreDir: dir, QueueCap: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Restored(); got != 3 {
		t.Fatalf("restart re-admitted %d jobs, want 3", got)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for _, id := range ids[1:] {
		if st := waitDone(t, ts2, id); st.State != StateDone {
			t.Errorf("re-admitted job %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	// Job 1 finished before the restart: resubmitting it must hit the
	// warm store (simulated exactly once across both processes).
	resp, sr := postJob(t, ts2, tinySpec(1))
	if resp.StatusCode != http.StatusOK || !sr.Cached {
		t.Errorf("finished job resubmit: status %d resp %+v, want 200 cached", resp.StatusCode, sr)
	}
	if got := srv2.Registry().Snapshot()["completed"].(int64); got != 3 {
		t.Errorf("restarted server simulated %d jobs, want exactly the 3 queued ones", got)
	}
	srv2.Drain()
	// Nothing queued should remain persisted after everything ran.
	srv3, err := New(Config{StoreDir: dir, QueueCap: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv3.Drain(); srv3.Close() }()
	if got := srv3.Restored(); got != 0 {
		t.Errorf("third start re-admitted %d jobs, want 0 (log compaction)", got)
	}
}
