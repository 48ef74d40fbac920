package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestSliceReader(t *testing.T) {
	recs := []Record{
		{PC: 1, Op: NonMem},
		{PC: 2, Op: Load, Addr: 0x1000},
		{PC: 3, Op: Store, Addr: 0x2000},
	}
	r := NewSliceReader(recs)
	for i, want := range recs {
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("record %d: got %+v,%v want %+v", i, got, ok, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("Next after exhaustion returned ok")
	}
	r.Reset()
	if got, ok := r.Next(); !ok || got != recs[0] {
		t.Error("Reset did not rewind")
	}
}

func TestLoopReaderWraps(t *testing.T) {
	recs := []Record{{PC: 1}, {PC: 2}}
	r := NewLoopReader(recs)
	for i := 0; i < 10; i++ {
		got, ok := r.Next()
		if !ok {
			t.Fatal("LoopReader returned not-ok")
		}
		if got.PC != recs[i%2].PC {
			t.Fatalf("iteration %d: PC %d, want %d", i, got.PC, recs[i%2].PC)
		}
	}
}

func TestLoopReaderEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLoopReader(nil) did not panic")
		}
	}()
	NewLoopReader(nil)
}

func TestCollect(t *testing.T) {
	r := NewLoopReader([]Record{{PC: 7}})
	got := Collect(r, 5)
	if len(got) != 5 {
		t.Fatalf("Collect returned %d records, want 5", len(got))
	}
	short := Collect(NewSliceReader([]Record{{PC: 1}}), 10)
	if len(short) != 1 {
		t.Fatalf("Collect over short stream returned %d, want 1", len(short))
	}
}

// TestCodecCompactness bounds the record encoding itself, before the
// block is compressed: sequential PCs and small addresses must
// delta-encode well below the naive 17 bytes/record.
func TestCodecCompactness(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	for i := 0; i < 1000; i++ {
		op := NonMem
		if i%4 == 0 {
			op = Load
		}
		if err := w.Write(Record{PC: 0x400000 + uint64(i*4), Op: op, Addr: mem.Addr(i * 64)}); err != nil {
			t.Fatal(err)
		}
	}
	perRec := float64(w.block.Len()) / 1000 // all 1000 still in the open block
	if perRec > 6 {
		t.Errorf("%.1f bytes/record, want <= 6 for sequential code", perRec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecPropertyRoundTrip round-trips arbitrary records, whose PC
// deltas run both ways, through a TRC2 container with blocks small
// enough that most streams span several.
func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(pcs []uint32, addrs []uint32, ops []uint8) bool {
		n := min(len(pcs), len(addrs), len(ops))
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{PC: uint64(pcs[i]), Op: Op(ops[i] % 3)}
			if recs[i].Op != NonMem {
				recs[i].Addr = mem.Addr(addrs[i])
				recs[i].LoadDep = ops[i] % 5
			}
		}
		var buf bytes.Buffer
		w := NewWriterV2(&buf)
		w.SetBlockRecords(7)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		fr := NewReaderV2(&buf)
		for _, want := range recs {
			got, ok := fr.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := fr.Next()
		return !ok && fr.Err() == nil && fr.ContentHash() == w.ContentHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
