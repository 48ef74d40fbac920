package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// FuzzCheckpointParse throws arbitrary bytes at the store scanner.
// The invariants: never panic, never claim a clean prefix longer than
// the input, and — when the parse succeeds — re-serializing the
// surviving records as a fresh v3 store must parse back to the same
// records with nothing quarantined (a quarantined-and-compacted store
// is stable, not lossy-on-every-open).
func FuzzCheckpointParse(f *testing.F) {
	const fp = "fuzz-fp"
	hdr, _ := json.Marshal(checkpointHeader{V: checkpointVersion, FP: fp})
	rec, _ := json.Marshal(checkpointRecord{V: checkpointVersion, Key: "a/b", Result: sim.Result{PrefetchesIssued: 3}})
	valid := append(append(append([]byte{}, hdr...), '\n'), frameRecord(rec)...)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("{"))
	// A retired v2 store: unframed records after a version-2 header.
	hdr2, _ := json.Marshal(checkpointHeader{V: 2, FP: fp})
	rec2, _ := json.Marshal(checkpointRecord{V: 2, Key: "a/b"})
	f.Add(append(append(append(append([]byte{}, hdr2...), '\n'), rec2...), '\n'))
	f.Add(append(append([]byte{}, hdr...), "\ndeadbeef {\"v\":3,\"key\":\"x\"}\n"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseStore(data, fp)
		if err != nil {
			return
		}
		if p.good > len(data) {
			t.Fatalf("clean prefix %d exceeds input length %d", p.good, len(data))
		}
		var buf bytes.Buffer
		buf.Write(hdr)
		buf.WriteByte('\n')
		for _, r := range p.recs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("surviving record does not re-marshal: %v", err)
			}
			buf.Write(frameRecord(b))
		}
		p2, err := parseStore(buf.Bytes(), fp)
		if err != nil {
			t.Fatalf("compacted store does not re-parse: %v", err)
		}
		if len(p2.quarantined) != 0 || p2.rewrite {
			t.Fatalf("compacted store still dirty: %d quarantined, rewrite=%t", len(p2.quarantined), p2.rewrite)
		}
		if len(p2.recs) != len(p.recs) {
			t.Fatalf("compaction lost records: %d -> %d", len(p.recs), len(p2.recs))
		}
		for i := range p2.recs {
			if p2.recs[i].Key != p.recs[i].Key {
				t.Fatalf("record %d key changed across compaction: %q -> %q", i, p.recs[i].Key, p2.recs[i].Key)
			}
		}
	})
}
