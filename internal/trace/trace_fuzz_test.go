package trace

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// FuzzTraceV2Decode feeds arbitrary bytes to the TRC2 container
// decoder. Invariants: never panic, never return an out-of-range op,
// never allocate unboundedly from a hostile length prefix, and any
// stream that decodes cleanly must have been footer-verified and must
// round-trip through the v2 writer to the identical record sequence.
func FuzzTraceV2Decode(f *testing.F) {
	seed := func(recs []Record, block int) []byte {
		var buf bytes.Buffer
		w := NewWriterV2(&buf)
		if block > 0 {
			w.SetBlockRecords(block)
		}
		for _, r := range recs {
			w.Write(r)
		}
		w.Close()
		return buf.Bytes()
	}
	valid := seed([]Record{
		{PC: 0x1000, Op: NonMem},
		{PC: 0x1004, Op: Load, Addr: mem.Addr(0x2000)},
		{PC: 0x1008, Op: Store, Addr: mem.Addr(0x3000)},
		{PC: 0x0ff0, Op: Load, Addr: mem.Addr(0x2040), LoadDep: 1},
	}, 2)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn footer
	f.Add(valid[:7])            // torn frame header
	f.Add(seed(nil, 0))         // empty trace
	f.Add([]byte("TRC2"))
	f.Add([]byte("TRC\x01not this codec"))
	f.Add([]byte{})
	f.Add([]byte("not a trace"))
	f.Add([]byte("TRC\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewReaderV2(bytes.NewReader(data))
		var recs []Record
		// Flate can expand, so records may legitimately outnumber input
		// bytes; bound the walk far above what the caps allow to catch a
		// decoder looping forever.
		const lim = 1 << 23
		for len(recs) < lim {
			rec, ok := fr.Next()
			if !ok {
				break
			}
			if rec.Op > Store {
				t.Fatalf("decoder returned out-of-range op %d", rec.Op)
			}
			recs = append(recs, rec)
		}
		if fr.Err() != nil {
			return // corrupt input, rejected: nothing more to check
		}
		if len(recs) == lim {
			t.Fatalf("decoder produced %d records without erroring", lim)
		}
		// A clean end means the footer verified; re-encode and compare.
		var out bytes.Buffer
		w := NewWriterV2(&out)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("re-encoding decoded record: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.ContentHash() != fr.ContentHash() {
			t.Fatalf("content hash changed across round-trip: %s -> %s", fr.ContentHash(), w.ContentHash())
		}
		fr2 := NewReaderV2(bytes.NewReader(out.Bytes()))
		for i, want := range recs {
			got, ok := fr2.Next()
			if !ok {
				t.Fatalf("round-trip lost record %d (of %d): %v", i, len(recs), fr2.Err())
			}
			if got != want {
				t.Fatalf("round-trip changed record %d: %+v -> %+v", i, want, got)
			}
		}
		if _, ok := fr2.Next(); ok {
			t.Fatal("round-trip invented extra records")
		}
		if fr2.Err() != nil {
			t.Fatalf("round-trip of a clean stream failed: %v", fr2.Err())
		}
	})
}
