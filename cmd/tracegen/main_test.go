package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSummarizeRoundTrip materializes a small benchmark trace exactly
// the way the generate path does, counting the expected statistics on
// the fly, then checks that -inspect's summarize recovers them from
// the TRC2 file, and refuses the same file with its end cut off.
func TestSummarizeRoundTrip(t *testing.T) {
	spec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("benchmark mcf not registered")
	}
	path := filepath.Join(t.TempDir(), "mcf.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriterV2(f)
	r := spec.New(42, 0)

	var want summary
	pcs := map[uint64]struct{}{}
	lines := map[mem.Line]struct{}{}
	const n = 50_000
	for i := 0; i < n; i++ {
		rec, ok := r.Next()
		if !ok {
			break
		}
		want.Records++
		switch rec.Op {
		case trace.Load:
			want.Loads++
		case trace.Store:
			want.Stores++
		}
		if rec.Op != trace.NonMem {
			pcs[rec.PC] = struct{}{}
			lines[mem.LineOf(rec.Addr)] = struct{}{}
		}
		if rec.LoadDep > 0 {
			want.Dependent++
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want.MemoryPCs = len(pcs)
	want.Lines = len(lines)

	got, err := summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("summarize mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Records != n {
		t.Errorf("expected the generator to supply all %d records, got %d", n, got.Records)
	}
	if got.Loads == 0 || got.Dependent == 0 {
		t.Errorf("mcf should contain dependent loads, got %+v", got)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	if s, err := summarize(path); err == nil {
		t.Errorf("summarize read a torn file as %+v", s)
	}
}

// TestTRC1Refused hands a stream in the retired unframed TRC\x01
// format (two records: a load, then a non-memory instruction) to each
// reader of trace files. Every one must refuse it rather than decode
// it, since that format reads a file cut at a record boundary as a
// clean, shorter trace.
func TestTRC1Refused(t *testing.T) {
	legacy := []byte{'T', 'R', 'C', 1,
		byte(trace.Load), 0x08, 0x80, 0x20, // PC +4, address 0x1000
		byte(trace.NonMem), 0x08, // PC +4
	}

	r := trace.NewReaderV2(bytes.NewReader(legacy))
	if rec, ok := r.Next(); ok {
		t.Errorf("NewReaderV2 decoded %+v", rec)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("NewReaderV2: Err = %v, want a bad-magic error", err)
	}

	dir := t.TempDir()
	c, err := trace.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := c.IngestFrom(bytes.NewReader(legacy), ""); err == nil {
		t.Errorf("IngestFrom stored it as %s", id)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("corpus directory after a refused ingest: %v (err %v), want empty", ents, err)
	}

	path := filepath.Join(t.TempDir(), "legacy.trace")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := summarize(path); err == nil {
		t.Errorf("summarize read it as %+v", s)
	}
}

// TestSummarizePrint pins the -inspect report format so the CLI output
// stays stable for scripts that scrape it.
func TestSummarizePrint(t *testing.T) {
	s := summary{Records: 10, Loads: 6, Stores: 2, Dependent: 3, MemoryPCs: 4, Lines: 5}
	var buf bytes.Buffer
	s.print(&buf)
	want := "records      : 10\n" +
		"loads/stores : 6 / 2\n" +
		"dependent    : 3 loads (50.0%) are pointer-chained\n" +
		"memory PCs   : 4\n" +
		"footprint    : 5 distinct lines (0.0 MB)\n"
	if buf.String() != want {
		t.Errorf("print output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestSummarizeMissingFile checks the error path -inspect relies on.
func TestSummarizeMissingFile(t *testing.T) {
	if _, err := summarize(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Error("expected an error for a missing trace file")
	}
}
