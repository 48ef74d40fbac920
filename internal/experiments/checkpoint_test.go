package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// testFP opens test checkpoints under the tiny-run fingerprint, the
// same way cmd/experiments stamps a -resume directory.
func testFP() string { return tinyParams().Fingerprint(config.Default(1)) }

// runWithCheckpoint executes the given experiments with a checkpoint
// attached, returning the concatenated CSV output and the runner.
func runWithCheckpoint(t *testing.T, dir string, ids []string) ([]byte, *Runner) {
	t.Helper()
	ck, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerPool(tinyParams(), NewPool(4))
	r.SetCheckpoint(ck)
	var es []Experiment
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		es = append(es, e)
	}
	var buf bytes.Buffer
	for _, tab := range RunAll(r, es) {
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// TestCheckpointResumeByteIdentical is the acceptance criterion: a
// second invocation over a complete checkpoint simulates nothing,
// restores every cell from disk, and emits byte-identical tables.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	dir := t.TempDir()
	first, r1 := runWithCheckpoint(t, dir, []string{"fig05"})
	if r1.Runs() == 0 {
		t.Fatal("first run simulated nothing")
	}
	second, r2 := runWithCheckpoint(t, dir, []string{"fig05"})
	if !bytes.Equal(first, second) {
		t.Errorf("resumed CSV differs from the original:\n--- fresh ---\n%s\n--- resumed ---\n%s", first, second)
	}
	if got := r2.Runs(); got != 0 {
		t.Errorf("resumed run re-simulated %d cells, want 0", got)
	}
	if r2.Restored() != r1.Runs() {
		t.Errorf("restored %d cells, want %d", r2.Restored(), r1.Runs())
	}
}

// TestCheckpointResumesEveryCellKind runs a figure of each cell kind
// with a checkpoint attached: Table 1 and changed-machine single-core
// cells (fig07's capacity-loss breakdown, sens-latency's extra LLC
// cycles, ext-llc-policy's Hawkeye LLC) and multi-core mixes (fig16). A
// second invocation over the store must simulate nothing, restore
// every cell the first simulated and print identical tables.
func TestCheckpointResumesEveryCellKind(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	ids := []string{"fig07", "sens-latency", "ext-llc-policy", "fig16"}
	dir := t.TempDir()
	first, r1 := runWithCheckpoint(t, dir, ids)
	if r1.Runs() == 0 {
		t.Fatal("first run simulated nothing")
	}
	second, r2 := runWithCheckpoint(t, dir, ids)
	if got := r2.Runs(); got != 0 {
		t.Errorf("resumed run re-simulated %d of %d cells, want 0", got, r1.Runs())
	}
	if r2.Restored() != r1.Runs() {
		t.Errorf("restored %d cells, want the %d the first run simulated", r2.Restored(), r1.Runs())
	}
	if !bytes.Equal(first, second) {
		t.Errorf("resumed CSV differs from the original:\n--- fresh ---\n%s\n--- resumed ---\n%s", first, second)
	}
}

// TestCheckpointPartialResume truncates the store to half its records
// (modelling a killed sweep) and verifies the resumed run simulates
// only the missing cells while still producing identical output.
func TestCheckpointPartialResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	dir := t.TempDir()
	first, r1 := runWithCheckpoint(t, dir, []string{"fig05"})
	total := r1.Runs()

	path := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One line per run plus the fingerprint header.
	records := bytes.Count(data, []byte("\n")) - 1
	if uint64(records) != total {
		t.Fatalf("checkpoint holds %d records for %d runs", records, total)
	}
	keep := records / 2
	if keep < 1 {
		t.Fatalf("need at least 2 records, have %d", records)
	}
	off := 0
	for i := 0; i < keep+1; i++ { // +1 keeps the header line
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	if err := os.WriteFile(path, data[:off], 0o644); err != nil {
		t.Fatal(err)
	}

	second, r2 := runWithCheckpoint(t, dir, []string{"fig05"})
	if !bytes.Equal(first, second) {
		t.Errorf("partially resumed CSV differs from the original:\n--- fresh ---\n%s\n--- resumed ---\n%s", first, second)
	}
	if got := r2.Restored(); got != uint64(keep) {
		t.Errorf("restored %d cells, want %d", got, keep)
	}
	if got := r2.Runs(); got != total-uint64(keep) {
		t.Errorf("re-simulated %d cells, want %d", got, total-uint64(keep))
	}
}

// TestCheckpointTornTail verifies crash safety: a partial record at the
// end of the file (a write cut off by SIGKILL) is discarded on open,
// the complete records survive, and subsequent appends land cleanly.
func TestCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{PrefetchesIssued: 7}
	ck.Put("a/b", res, []byte("{\"s\":1}\n"))
	ck.Put("c/d", res, nil)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, checkpointFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatalf("torn tail rejected the whole checkpoint: %v", err)
	}
	if got := ck2.Len(); got != 2 {
		t.Errorf("loaded %d records, want 2 (torn record dropped)", got)
	}
	got, samples, ok := ck2.Get("a/b")
	if !ok || got.PrefetchesIssued != 7 {
		t.Errorf("record a/b = (%+v, %t), want the persisted result", got, ok)
	}
	if string(samples) != "{\"s\":1}\n" {
		t.Errorf("samples = %q, want the persisted series", samples)
	}
	ck2.Put("e/f", res, nil)
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}

	ck3, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if got := ck3.Len(); got != 3 {
		t.Errorf("after append-and-reopen: %d records, want 3", got)
	}
	if _, _, ok := ck3.Get("e/f"); !ok {
		t.Error("record appended after truncation did not survive reopen")
	}
	ck3.Close()
}

// TestCheckpointVersionMismatch ensures a store written by a different
// format version is refused rather than silently misread.
func TestCheckpointVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	hdr := `{"v":99,"fp":"whatever"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(dir, testFP()); err == nil {
		t.Fatal("opened a checkpoint from a future format version")
	}
}

// TestCheckpointFingerprintMismatch is the stale-result guard: a store
// written under one configuration refuses to open under another, and
// still opens under its own.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	ck.Put("a/b", sim.Result{}, nil)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	other := FullParams().Fingerprint(config.Default(1))
	if other == testFP() {
		t.Fatal("test needs two distinct fingerprints")
	}
	if _, err := OpenCheckpoint(dir, other); err == nil {
		t.Fatal("store opened under a different configuration fingerprint")
	}
	ck2, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatalf("store refused its own fingerprint: %v", err)
	}
	if !ck2.Has("a/b") {
		t.Error("record lost across reopen")
	}
	ck2.Close()
}

// TestCheckpointBlobs covers the service's opaque payloads: blob and
// run records share a key space but do not cross-read.
func TestCheckpointBlobs(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	ck.PutBlob("fig/x", []byte(`{"table":1}`))
	ck.Put("run/y", sim.Result{PrefetchesIssued: 3}, nil)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if blob, ok := ck2.GetBlob("fig/x"); !ok || string(blob) != `{"table":1}` {
		t.Errorf("GetBlob = (%q, %t), want the persisted blob", blob, ok)
	}
	if _, _, ok := ck2.Get("fig/x"); ok {
		t.Error("Get served a blob record as a run")
	}
	if _, ok := ck2.GetBlob("run/y"); ok {
		t.Error("GetBlob served a run record as a blob")
	}
	if !ck2.Has("fig/x") || !ck2.Has("run/y") {
		t.Error("Has missed a stored key")
	}
}
