package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFuncReader(t *testing.T) {
	n := 0
	r := FuncReader(func() (Record, bool) {
		n++
		if n > 3 {
			return Record{}, false
		}
		return Record{PC: uint64(n)}, true
	})
	got := Collect(r, 10)
	if len(got) != 3 {
		t.Fatalf("collected %d records, want 3", len(got))
	}
	for i, r := range got {
		if r.PC != uint64(i+1) {
			t.Errorf("record %d PC = %d", i, r.PC)
		}
	}
}

// TestReaderV2ErrSticky: a read error from the underlying stream, at
// the magic or after a block has been served, ends the stream with
// that error, and later calls stay failed with the same error.
func TestReaderV2ErrSticky(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	w.SetBlockRecords(2)
	for i := 0; i < 4; i++ {
		if err := w.Write(Record{PC: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The first frame ends after its 9-byte header (kind, length, CRC)
	// and the payload length that header names.
	firstFrame := len(magicV2) + 9 + int(binary.LittleEndian.Uint32(data[len(magicV2)+1:]))
	for _, tc := range []struct {
		name string
		good []byte // bytes served before the failure
		recs int
	}{
		{"at the magic", nil, 0},
		{"after a block", data[:firstFrame], 2},
	} {
		fr := NewReaderV2(io.MultiReader(bytes.NewReader(tc.good), errReader{}))
		got := len(Collect(fr, 10))
		err := fr.Err()
		if got != tc.recs || !errors.Is(err, errBoom) {
			t.Fatalf("%s: %d records, Err %v; want %d records and the read error", tc.name, got, err, tc.recs)
		}
		if _, ok := fr.Next(); ok {
			t.Errorf("%s: Next succeeded after the read error", tc.name)
		}
		if fr.Err() != err {
			t.Errorf("%s: Err changed from %v to %v", tc.name, err, fr.Err())
		}
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errBoom }

var errBoom = errors.New("boom")
