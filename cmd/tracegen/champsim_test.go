package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// champsimInsn encodes one 64-byte ChampSim instruction.
func champsimInsn(pc uint64, srcMem, dstMem []uint64) []byte {
	buf := make([]byte, champsimRecordSize)
	binary.LittleEndian.PutUint64(buf[0:8], pc)
	for i, a := range dstMem {
		binary.LittleEndian.PutUint64(buf[16+8*i:24+8*i], a)
	}
	for i, a := range srcMem {
		binary.LittleEndian.PutUint64(buf[32+8*i:40+8*i], a)
	}
	return buf
}

func collectChampSim(t *testing.T, r io.Reader) ([]trace.Record, error) {
	t.Helper()
	cr, err := newChampSimReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for {
		rec, ok := cr.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, cr.Err()
}

func TestChampSimConvert(t *testing.T) {
	var in bytes.Buffer
	in.Write(champsimInsn(0x400000, []uint64{0x7000}, []uint64{0x8000}))
	in.Write(champsimInsn(0x400004, nil, nil))
	in.Write(champsimInsn(0x400008, []uint64{0x7040, 0x9000}, nil))

	recs, err := collectChampSim(t, &in)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Record{
		{PC: 0x400000, Op: trace.Load, Addr: mem.Addr(0x7000)},
		{PC: 0x400000, Op: trace.Store, Addr: mem.Addr(0x8000)},
		{PC: 0x400004, Op: trace.NonMem},
		{PC: 0x400008, Op: trace.Load, Addr: mem.Addr(0x7040)},
		{PC: 0x400008, Op: trace.Load, Addr: mem.Addr(0x9000)},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, recs[i], want[i])
		}
	}
}

// TestChampSimGzip checks that a gzip-compressed input is sniffed and
// decodes to the identical record stream.
func TestChampSimGzip(t *testing.T) {
	raw := append(champsimInsn(0x1000, []uint64{0x2000}, nil),
		champsimInsn(0x1004, nil, []uint64{0x3000})...)
	plain, err := collectChampSim(t, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(raw)
	zw.Close()
	zipped, err := collectChampSim(t, bytes.NewReader(zbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(zipped) {
		t.Fatalf("gzip path decoded %d records, plain %d", len(zipped), len(plain))
	}
	for i := range plain {
		if plain[i] != zipped[i] {
			t.Errorf("record %d differs across gzip: %+v vs %+v", i, plain[i], zipped[i])
		}
	}
}

// TestChampSimTruncated pins the torn-input contract: a partial final
// instruction surfaces io.ErrUnexpectedEOF instead of being silently
// dropped — the same discipline as the trace decoders.
func TestChampSimTruncated(t *testing.T) {
	raw := append(champsimInsn(0x1000, []uint64{0x2000}, nil),
		champsimInsn(0x1004, []uint64{0x2040}, nil)...)
	recs, err := collectChampSim(t, bytes.NewReader(raw[:champsimRecordSize+10]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated input: err = %v, want ErrUnexpectedEOF", err)
	}
	if len(recs) != 1 {
		t.Errorf("got %d records before the tear, want 1", len(recs))
	}
}

// TestImportChampSimToCorpus runs the full import pipeline: encode
// instructions, ingest via -import champsim -corpus, reopen by id.
func TestImportChampSimToCorpus(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.champsim")
	var raw []byte
	for i := 0; i < 100; i++ {
		raw = append(raw, champsimInsn(0x1000+uint64(i)*4, []uint64{0x4000 + uint64(i)*64}, nil)...)
	}
	if err := os.WriteFile(inPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	src, closeSrc, err := openSource("champsim", inPath, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrc()
	corpusDir := filepath.Join(dir, "corpus")
	if err := ingestCorpus(corpusDir, src, 1<<20); err != nil {
		t.Fatal(err)
	}

	c, err := trace.OpenCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.List()
	if err != nil || len(ids) != 1 {
		t.Fatalf("corpus list = %v, %v", ids, err)
	}
	cf, err := c.Open(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for i := 0; i < 100; i++ {
		rec, ok := cf.Next()
		if !ok {
			t.Fatalf("corpus trace ended at %d: %v", i, cf.Err())
		}
		want := trace.Record{PC: 0x1000 + uint64(i)*4, Op: trace.Load, Addr: mem.Addr(0x4000 + i*64)}
		if rec != want {
			t.Fatalf("record %d: got %+v, want %+v", i, rec, want)
		}
	}
	if _, ok := cf.Next(); ok {
		t.Fatal("extra records after import")
	}
	if err := cf.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeV2 checks -inspect's counts on a small hand-written TRC2
// file.
func TestSummarizeV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriterV2(f)
	w.Write(trace.Record{PC: 0x10, Op: trace.Load, Addr: 0x100})
	w.Write(trace.Record{PC: 0x14, Op: trace.Store, Addr: 0x140})
	w.Write(trace.Record{PC: 0x18, Op: trace.NonMem})
	w.Write(trace.Record{PC: 0x10, Op: trace.Load, Addr: 0x100, LoadDep: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	want := summary{Records: 4, Loads: 2, Stores: 1, Dependent: 1, MemoryPCs: 2, Lines: 2}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
}
