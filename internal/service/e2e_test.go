package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// TestServiceByteIdenticalToDirectRun is the tentpole acceptance
// criterion: a job submitted through the HTTP API returns a result —
// tables and sampled telemetry — byte-identical to running the same
// spec directly (the cmd/triagesim path), including when the result is
// later served from the warm store.
func TestServiceByteIdenticalToDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	spec := experiments.RunSpec{
		Bench: "cassandra", PF: "triage-dyn", Cores: 1,
		Warmup: 20_000, Measure: 120_000, Seed: 42, Degree: 1,
		SampleEvery: 30_000,
	}

	// Direct path: exactly what cmd/triagesim does.
	hooks := &telemetry.Hooks{Sampler: telemetry.NewSampler(spec.SampleEvery)}
	directRes, err := spec.Run(hooks)
	if err != nil {
		t.Fatal(err)
	}
	directJSON := experiments.EncodeResult(directRes)
	var directSamples bytes.Buffer
	if err := hooks.Sampler.WriteJSONL(&directSamples); err != nil {
		t.Fatal(err)
	}
	if directSamples.Len() == 0 {
		t.Fatal("direct run recorded no samples; the comparison would be vacuous")
	}

	// Service path.
	dir := t.TempDir()
	srv, err := New(Config{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	_, sr := postJob(t, ts, JobSpec{Kind: KindSingle, Run: &spec})
	st := waitDone(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("service job ended %s (%s)", st.State, st.Error)
	}
	apiJSON, apiSamples := fetchEncoded(t, ts, sr.ID)
	if !bytes.Equal(directJSON, apiJSON) {
		t.Errorf("service result differs from direct run:\n--- direct ---\n%s\n--- service ---\n%s", directJSON, apiJSON)
	}
	if !bytes.Equal(directSamples.Bytes(), apiSamples) {
		t.Errorf("service sampled series differs from direct run:\n--- direct ---\n%s\n--- service ---\n%s",
			directSamples.Bytes(), apiSamples)
	}
	ts.Close()
	srv.Drain()
	srv.Close()

	// Warm-store path: a fresh server on the same directory serves the
	// stored result without simulating — still byte-identical.
	srv2, err := New(Config{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	defer srv2.Drain()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	_, sr2 := postJob(t, ts2, JobSpec{Kind: KindSingle, Run: &spec})
	if !sr2.Cached {
		t.Fatalf("restarted server did not serve from the warm store: %+v", sr2)
	}
	warmJSON, warmSamples := fetchEncoded(t, ts2, sr2.ID)
	if !bytes.Equal(directJSON, warmJSON) {
		t.Error("warm-store result differs from the direct run")
	}
	if !bytes.Equal(directSamples.Bytes(), warmSamples) {
		t.Error("warm-store sampled series differs from the direct run")
	}
	if got := srv2.Registry().Snapshot()["completed"].(int64); got != 0 {
		t.Errorf("warm serve simulated %d jobs, want 0", got)
	}
}

// fetchEncoded downloads a job's result envelope and re-encodes the
// sim.Result with the shared encoder — the same transformation
// triagectl applies before writing to disk.
func fetchEncoded(t *testing.T, ts *httptest.Server, id string) (resJSON, samples []byte) {
	t.Helper()
	var jr JobResult
	if err := json.Unmarshal(readAll(t, mustGet(t, ts, "/v1/jobs/"+id+"/result")), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Result == nil {
		t.Fatal("result envelope carries no sim.Result")
	}
	return experiments.EncodeResult(*jr.Result), []byte(jr.SamplesJSONL)
}
