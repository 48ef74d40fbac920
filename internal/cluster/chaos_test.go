package cluster

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestClusterWorkerKill is the cluster chaos harness: three seeded
// cycles kill a whole worker mid-job (all its traffic suppressed, as
// if kill -9'd) and check the tentpole guarantees:
//
//   - no acknowledged job is lost: every submission the coordinator
//     acknowledged reaches done, the victim's leased job included
//     (its lease lapses and the sweep requeues it onto the survivor);
//   - nothing durable is re-simulated: a gate on both workers asserts
//     no simulation ever starts for a key whose result is already in
//     the store;
//   - figures stay byte-identical: every payload matches a fault-free
//     single-node baseline.
func TestClusterWorkerKill(t *testing.T) {
	for cycle := 0; cycle < 3; cycle++ {
		seedBase := uint64(cycle*100 + 1)
		specs := make([]service.JobSpec, 6)
		for i := range specs {
			specs[i] = tinySpec(seedBase + uint64(i))
		}
		baseline := localPayloads(t, specs)

		tc := startCluster(t, nil, func(c *Config) {
			c.LeaseTTL = 500 * time.Millisecond
			c.SweepEvery = 50 * time.Millisecond
		})

		var (
			mu       sync.Mutex
			simCount = make(map[string]int)
		)
		countingGate := func(key string) {
			if tc.srv.HasDurable(key) {
				t.Errorf("cycle %d: key %s re-simulated after its result was durable", cycle, key)
			}
			mu.Lock()
			simCount[key]++
			mu.Unlock()
		}

		// The victim parks its first job before the simulation starts
		// and holds it until killed — a worker dying mid-job. The
		// accounting gate runs before the park so the zombie's
		// simulation is counted at pre-kill time.
		victimArmed := make(chan struct{})
		victimRelease := make(chan struct{})
		var armedOnce sync.Once
		var victimSims atomic.Int64
		victimGate := func(key string) {
			victimSims.Add(1)
			countingGate(key)
			armedOnce.Do(func() {
				close(victimArmed)
				<-victimRelease
			})
		}

		victim, stopVictim := startWorker(t, tc.ts.URL, "victim", func(c *WorkerConfig) { c.Gate = victimGate })
		_, stopSurvivor := startWorker(t, tc.ts.URL, "survivor", func(c *WorkerConfig) { c.Gate = countingGate })

		// Submit only once both workers poll, so the victim reliably
		// ends up holding a job.
		regDeadline := time.Now().Add(10 * time.Second)
		for len(tc.coord.Status().Workers) < 2 && time.Now().Before(regDeadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if n := len(tc.coord.Status().Workers); n < 2 {
			t.Fatalf("cycle %d: only %d workers registered", cycle, n)
		}

		jobs := make([]*service.Job, 0, len(specs))
		for _, spec := range specs {
			j, _, err := tc.srv.Submit(cloneSpec(spec))
			if err != nil {
				t.Fatalf("cycle %d: submit: %v", cycle, err)
			}
			jobs = append(jobs, j) // acknowledged
		}

		// Wait until the victim holds a job mid-run, then kill it. The
		// zombie simulation continues but its upload is suppressed.
		select {
		case <-victimArmed:
		case <-time.After(30 * time.Second):
			t.Fatalf("cycle %d: victim never picked up a job", cycle)
		}
		victim.Kill()
		close(victimRelease)

		// Every acknowledged job still completes, and the payloads are
		// byte-identical to the fault-free single-node baseline.
		for i, j := range jobs {
			st := waitTerminal(t, tc.srv, j)
			if st.State != service.StateDone {
				t.Fatalf("cycle %d: acknowledged job %d lost (state %s: %s)", cycle, i, st.State, st.Error)
			}
			payload, ok := tc.srv.Result(j)
			if !ok {
				t.Fatalf("cycle %d: job %d has no result", cycle, i)
			}
			if !bytes.Equal(payload, baseline[st.Key]) {
				t.Errorf("cycle %d: job %d payload differs from the fault-free baseline", cycle, i)
			}
		}

		// The kill was observed: the victim's lease lapsed and its job
		// requeued onto the survivor.
		deadline := time.Now().Add(10 * time.Second)
		for tc.coord.mRequeued.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if tc.coord.mRequeued.Value() == 0 {
			t.Errorf("cycle %d: no job was requeued after the worker kill", cycle)
		}
		if victimSims.Load() == 0 {
			t.Errorf("cycle %d: the victim never started a job (kill tested nothing)", cycle)
		}

		// Every key simulated by someone; the only key allowed a second
		// simulation is the victim's killed job (re-run by the survivor,
		// never after durability).
		mu.Lock()
		doubles := 0
		for key, n := range simCount {
			if n > 2 {
				t.Errorf("cycle %d: key %s simulated %d times", cycle, key, n)
			}
			if n == 2 {
				doubles++
			}
		}
		keys := len(simCount)
		mu.Unlock()
		if keys != len(specs) {
			t.Errorf("cycle %d: %d distinct keys simulated, want %d", cycle, keys, len(specs))
		}
		if doubles > 1 {
			t.Errorf("cycle %d: %d keys were simulated twice, only the killed job's may be", cycle, doubles)
		}

		stopSurvivor()
		stopVictim()
		tc.stop()
	}
}
