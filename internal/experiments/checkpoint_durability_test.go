package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestCheckpointV2Refused: a log in a retired format is refused with
// the version error naming the file rather than served, and the
// refusal leaves the file byte-for-byte unchanged. The inputs are a v2
// result store (no per-record CRC) and an admission log in the service's
// former unframed format (no header at all).
func TestCheckpointV2Refused(t *testing.T) {
	hdr, err := json.Marshal(checkpointHeader{V: 2, FP: testFP()})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(checkpointRecord{V: 2, Key: "a/b", Result: sim.Result{PrefetchesIssued: 11}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, data, wantErr string
	}{
		{checkpointFile, string(hdr) + "\n" + string(rec) + "\n", "format version 2, this build writes 3"},
		{"queue.jsonl", `{"key":"single/mcf/none/x1/w0/m30000/s1/d1","spec":{"kind":"single"}}` + "\n", "format version 0, this build writes 3"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, _, err := OpenLogFS(vfs.OS{}, dir, tc.name, testFP(), nil)
		if err == nil {
			ck.Close()
			t.Fatalf("%s: opened a log in a retired format", tc.name)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.wantErr) || !strings.Contains(msg, path) || strings.Contains(msg, "delete the directory") {
			t.Errorf("%s refused with %q, want the format-version error naming the file", tc.name, msg)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != tc.data {
			t.Errorf("refusing %s changed it:\n%q\nwant\n%q", tc.name, after, tc.data)
		}
	}
}

// TestCheckpointMidFileCorruption flips bytes inside an early record
// and verifies the corruption is detected (CRC), the record is
// quarantined rather than served, and every healthy record — before
// and after the corrupt one — survives. It runs on the result store
// and on a log under its own name whose open also drops a record (as
// the service's admission log drops finished jobs), through the same
// compacting rewrite.
func TestCheckpointMidFileCorruption(t *testing.T) {
	for _, tc := range []struct {
		name     string
		drop     func(key string) bool
		wantKeys []string
	}{
		{checkpointFile, nil, []string{"a/1", "a/3", "a/4"}},
		{"queue.jsonl", func(key string) bool { return key == "a/3" }, []string{"a/1", "a/4"}},
	} {
		dir := t.TempDir()
		ck, _, err := OpenLogFS(vfs.OS{}, dir, tc.name, testFP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"a/1", "a/2", "a/3", "a/4"} {
			if err := ck.Put(key, sim.Result{PrefetchesIssued: 5}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, tc.name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt the second record's payload (line 2 after the header)
		// without touching its newline.
		lines := bytes.SplitAfter(data, []byte("\n"))
		mid := lines[2]
		copy(mid[20:], []byte("XXXX"))
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}

		ck2, keys, err := OpenLogFS(vfs.OS{}, dir, tc.name, testFP(), tc.drop)
		if err != nil {
			t.Fatalf("%s: mid-file corruption rejected the whole log: %v", tc.name, err)
		}
		if ck2.Quarantined() != 1 {
			t.Errorf("%s: quarantined %d records, want 1", tc.name, ck2.Quarantined())
		}
		if ck2.Has("a/2") {
			t.Errorf("%s: corrupt record a/2 served anyway", tc.name)
		}
		if strings.Join(keys, " ") != strings.Join(tc.wantKeys, " ") {
			t.Errorf("%s: open kept %q, want %q in file order", tc.name, keys, tc.wantKeys)
		}
		if err := ck2.Close(); err != nil {
			t.Fatal(err)
		}

		// The quarantine file holds the corrupt line; the compacted log
		// reopens clean, with the same records in the same order.
		q, err := os.ReadFile(filepath.Join(dir, quarantineFile))
		if err != nil || !bytes.Contains(q, []byte("XXXX")) {
			t.Errorf("%s: quarantine file missing the corrupt line (err %v)", tc.name, err)
		}
		ck3, keys, err := OpenLogFS(vfs.OS{}, dir, tc.name, testFP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if ck3.Quarantined() != 0 {
			t.Errorf("%s: compacted log still quarantines %d records", tc.name, ck3.Quarantined())
		}
		if strings.Join(keys, " ") != strings.Join(tc.wantKeys, " ") {
			t.Errorf("%s: compacted log holds %q, want %q", tc.name, keys, tc.wantKeys)
		}
		ck3.Close()
	}
}

// TestCheckpointCrashDuringCompaction crashes the disk while an open
// compacts a log (a record dropped, as the service's admission log
// drops finished jobs). The rewrite is crash-atomic: whatever the
// injected fault (failed or torn write, failed fsync or rename), the
// log after the crash is the old one or the compacted one, never a
// mix, and it opens cleanly.
func TestCheckpointCrashDuringCompaction(t *testing.T) {
	old, compacted := "a/1 a/2 a/3", "a/1 a/3"
	seen := map[string]bool{}
	for seed := int64(0); seed < 32; seed++ {
		mem := vfs.NewMem(seed)
		ck, _, err := OpenLogFS(mem, "store", "queue.jsonl", testFP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"a/1", "a/2", "a/3"} {
			if err := ck.PutBlob(key, []byte(key)); err != nil {
				t.Fatal(err)
			}
		}
		ck.Close()

		faulty := vfs.NewFaulty(mem, vfs.Plan{Seed: seed, PWrite: 0.3, PSync: 0.3, PRename: 0.3, ShortWrites: true})
		if ck, _, err := OpenLogFS(faulty, "store", "queue.jsonl", testFP(), func(key string) bool { return key == "a/2" }); err == nil {
			ck.Close()
		}
		mem.Crash()

		ck2, keys, err := OpenLogFS(mem, "store", "queue.jsonl", testFP(), nil)
		if err != nil {
			t.Fatalf("seed %d: log unopenable after a crash during compaction: %v", seed, err)
		}
		got := strings.Join(keys, " ")
		if (got != old && got != compacted) || ck2.Quarantined() != 0 {
			t.Fatalf("seed %d: log after the crash holds %q (%d quarantined), want %q or %q", seed, got, ck2.Quarantined(), old, compacted)
		}
		seen[got] = true
		ck2.Close()
	}
	if !seen[old] || !seen[compacted] {
		t.Errorf("crash outcomes %v, want both the old and the compacted log among the seeds", seen)
	}
}

// TestCheckpointCrashBetweenWriteAndSync is the kill -9 window the
// ISSUE names: a record written but not yet fsynced when the process
// dies must not corrupt the store — on reopen the store is openable,
// fully-synced records are intact, and the un-synced tail is
// truncated/quarantined, never half-served.
func TestCheckpointCrashBetweenWriteAndSync(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		mem := vfs.NewMem(seed)
		// Sync failures leave the acknowledged prefix durable but the
		// failing record merely written: exactly the write/fsync window.
		faulty := vfs.NewFaulty(mem, vfs.Plan{})
		ck, err := OpenCheckpointFS(faulty, "store", testFP())
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Put("good/1", sim.Result{PrefetchesIssued: 1}, nil); err != nil {
			t.Fatal(err)
		}
		faulty.SetPlan(vfs.Plan{Seed: seed, PSync: 1})
		if err := ck.Put("lost/2", sim.Result{PrefetchesIssued: 2}, nil); err == nil {
			t.Fatal("sync fault not delivered")
		}
		// kill -9: the process is gone, the disk keeps only what was
		// synced plus a random prefix of the unsynced record.
		mem.Crash()

		faulty.Heal()
		ck2, err := OpenCheckpointFS(faulty, "store", testFP())
		if err != nil {
			t.Fatalf("seed %d: store unopenable after crash: %v", seed, err)
		}
		if !ck2.Has("good/1") {
			t.Fatalf("seed %d: synced record lost", seed)
		}
		// The un-synced record either survived whole (its bytes all
		// reached disk before the crash) or was dropped; a torn prefix
		// must never be served as a record.
		if ck2.Has("lost/2") {
			res, _, _ := ck2.Get("lost/2")
			if res.PrefetchesIssued != 2 {
				t.Fatalf("seed %d: torn record served with wrong content", seed)
			}
		}
		// And the store must accept appends again.
		if err := ck2.Put("new/3", sim.Result{}, nil); err != nil {
			t.Fatalf("seed %d: append after crash recovery: %v", seed, err)
		}
		if err := ck2.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}

// TestCheckpointPutReportsAndLatchesErrors: a failed Put surfaces the
// error to the caller (degraded mode), latches it for Close, and
// ClearErr forgives it after recovery.
func TestCheckpointPutReportsAndLatchesErrors(t *testing.T) {
	faulty := vfs.NewFaulty(vfs.NewMem(1), vfs.Plan{})
	ck, err := OpenCheckpointFS(faulty, "store", testFP())
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetPlan(vfs.Plan{Seed: 9, PWrite: 1})
	if err := ck.Put("k", sim.Result{}, nil); !vfs.IsInjected(err) {
		t.Fatalf("Put returned %v, want the injected fault", err)
	}
	if ck.Has("k") {
		t.Error("failed Put left the record visible in memory")
	}
	if ck.Err() == nil {
		t.Error("write error not latched")
	}
	faulty.Heal()
	if err := ck.Put("k", sim.Result{}, nil); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	ck.ClearErr()
	if err := ck.Close(); err != nil {
		t.Fatalf("Close after ClearErr: %v", err)
	}
}
