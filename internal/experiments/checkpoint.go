package experiments

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// checkpointVersion is bumped whenever the record layout (or the
// meaning of sim.Result fields) changes. Version 2 added the
// fingerprint header and blob records; version 3 frames every record
// with a CRC32 so corruption anywhere in the file — not just a torn
// tail — is detected and quarantined instead of silently served. A
// store written under any other version, v2 included, is refused on
// open: a v2 record carries no CRC, so a bit flip that still parses
// would be served.
const checkpointVersion = 3

// checkpointFile is the result store's append-only log;
// quarantineFile collects the raw bytes of any record that failed its
// integrity check, in this or another log of the same directory
// (OpenLogFS), for forensics.
const (
	checkpointFile = "runs.jsonl"
	quarantineFile = "quarantine.jsonl"
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64), the standard choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checkpointHeader is the store's first line: the format version plus
// the configuration fingerprint every record in the store was
// simulated under. Folding the fingerprint into the store (instead of
// trusting the caller to reuse the same flags) is what makes a resumed
// run refuse — loudly — to restore results simulated under different
// machine parameters, workloads, or instruction windows.
type checkpointHeader struct {
	V  int    `json:"v"`
	FP string `json:"fp"`
}

// checkpointRecord is one completed run. sim.Result is plain exported
// numeric data, so JSON round-trips it exactly (uint64s parse exactly;
// float64 uses shortest-round-trip encoding) and a resumed sweep
// reproduces byte-identical tables. Blob records (the service's
// figure-table payloads) carry an opaque payload instead of a Result.
type checkpointRecord struct {
	V       int        `json:"v"`
	Key     string     `json:"key"`
	Result  sim.Result `json:"result"`
	Samples []byte     `json:"samples,omitempty"` // JSONL series, if sampled
	Blob    []byte     `json:"blob,omitempty"`    // opaque payload (blob records)
	IsBlob  bool       `json:"is_blob,omitempty"`
}

// frameRecord renders one v3 line: 8 hex digits of CRC32-C over the
// JSON payload, a space, the payload, a newline. The checksum covers
// exactly the bytes a reader will parse, so any mid-file bit flip,
// overwrite, or merged line fails verification.
func frameRecord(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+10)
	var crc [4]byte
	sum := crc32.Checksum(payload, crcTable)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	out = append(out, hex.EncodeToString(crc[:])...)
	out = append(out, ' ')
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

// unframeRecord verifies and strips a v3 frame, returning the JSON
// payload or an error describing why the line cannot be trusted.
func unframeRecord(line []byte) ([]byte, error) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, errors.New("missing CRC frame")
	}
	var crc [4]byte
	if _, err := hex.Decode(crc[:], line[:8]); err != nil {
		return nil, errors.New("malformed CRC")
	}
	want := uint32(crc[0])<<24 | uint32(crc[1])<<16 | uint32(crc[2])<<8 | uint32(crc[3])
	payload := line[9:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// parsedStore is the outcome of scanning a store file: the surviving
// records in file order, the length of the clean prefix (for the
// truncate-only fast path), the raw bytes of quarantined lines, and
// whether the file must be rewritten (mid-file corruption) rather than
// merely truncated.
type parsedStore struct {
	recs        []checkpointRecord
	good        int
	quarantined [][]byte
	rewrite     bool
}

// parseStore scans one store file. It is a pure function of its
// inputs (fuzzed directly in checkpoint_fuzz_test.go) and must never
// panic on arbitrary bytes. A version or fingerprint mismatch in an
// intact header is an error; corrupt records are quarantined, not
// fatal; a torn tail (no trailing newline) is dropped.
func parseStore(data []byte, fingerprint string) (parsedStore, error) {
	var p parsedStore
	first := true
	for p.good < len(data) {
		nl := bytes.IndexByte(data[p.good:], '\n')
		if nl < 0 {
			// Torn tail: the record never finished writing. Quarantine the
			// fragment for forensics and stop.
			p.quarantined = append(p.quarantined, append([]byte(nil), data[p.good:]...))
			break
		}
		line := data[p.good : p.good+nl]
		if first {
			var hdr checkpointHeader
			if json.Unmarshal(line, &hdr) != nil {
				if p.good+nl+1 >= len(data) {
					// A lone corrupt header is a crash during store creation:
					// nothing can have been acknowledged, start over.
					p.quarantined = append(p.quarantined, append([]byte(nil), line...))
					p.good = 0
					p.rewrite = true
					return p, nil
				}
				return p, fmt.Errorf("header is corrupt but records follow; refusing to guess (move the file aside to start over)")
			}
			if hdr.V != checkpointVersion {
				return p, fmt.Errorf("format version %d, this build writes %d (written by another build: move the file aside to start over)",
					hdr.V, checkpointVersion)
			}
			if hdr.FP != fingerprint {
				return p, fmt.Errorf("holds records for a different configuration (fingerprint %.12s..., want %.12s...): it was written under different machine parameters, workloads, or instruction windows — move the file aside or rerun with the original parameters",
					hdr.FP, fingerprint)
			}
			first = false
			p.good += nl + 1
			continue
		}
		payload, err := unframeRecord(line)
		var rec checkpointRecord
		if err != nil || json.Unmarshal(payload, &rec) != nil || rec.V != checkpointVersion || rec.Key == "" {
			p.quarantined = append(p.quarantined, append([]byte(nil), line...))
			p.rewrite = true
			p.good += nl + 1
			continue
		}
		p.recs = append(p.recs, rec)
		p.good += nl + 1
	}
	return p, nil
}

// Checkpoint is a versioned, fingerprinted, checksummed on-disk store
// of completed runs, keyed like the pool memo's single-core cells
// ("bench/config"); opened with OpenLogFS under another file name, the
// same code keeps the service's admission log. Records are appended as
// CRC32-framed JSONL lines after a header naming the configuration
// fingerprint, and every append is fsynced before it is acknowledged.
// On open, a torn tail (from a kill mid-write) is truncated away, a
// mid-file record that fails its checksum is quarantined to
// quarantine.jsonl (and the store compacted) rather than served, and a
// store whose fingerprint does not match the caller's is refused with
// an error instead of silently restoring stale results.
type Checkpoint struct {
	mu          sync.Mutex
	f           vfs.File
	fp          string
	seen        map[string]checkpointRecord
	quarantined int
	err         error // first write error, reported at Close
	// off is the end offset of the last durable record; dirty marks a
	// failed append that may have left torn bytes past off. The next
	// append first truncates back to off, so a retried Put can never
	// glue its record onto a torn prefix (which would corrupt the
	// *retried* — acknowledged! — record on the next open).
	off   int64
	dirty bool
}

// OpenCheckpoint opens (or creates) the store in dir on the real
// filesystem. See OpenCheckpointFS.
func OpenCheckpoint(dir, fingerprint string) (*Checkpoint, error) {
	return OpenCheckpointFS(vfs.OS{}, dir, fingerprint)
}

// OpenCheckpointFS opens (or creates) the store in dir on fsys,
// loading every record that passes its integrity check. fingerprint
// stamps a fresh store and is checked against an existing one: pass
// the output of Params.Fingerprint (or ConfigFingerprint) for the
// configuration whose results the store holds. A mismatch — the store
// was written under different machine parameters, workloads, or
// instruction windows — is an error; move runs.jsonl aside (or rerun
// with the original parameters) to proceed.
func OpenCheckpointFS(fsys vfs.FS, dir, fingerprint string) (*Checkpoint, error) {
	c, _, err := OpenLogFS(fsys, dir, checkpointFile, fingerprint, nil)
	return c, err
}

// OpenLogFS opens (or creates) the log file name in dir on fsys, in
// the store's format and with its guarantees: header, CRC frames,
// torn-tail repair, quarantine to dir's quarantine.jsonl. The service
// keeps its admission log this way, beside the result store. drop,
// when non-nil, names records to leave out: they are compacted away
// by the same crash-atomic rewrite that removes quarantined records.
// keys lists the surviving records' keys in file order.
func OpenLogFS(fsys vfs.FS, dir, name, fingerprint string, drop func(key string) bool) (c *Checkpoint, keys []string, err error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, name)
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	p, err := parseStore(data, fingerprint)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	c = &Checkpoint{fp: fingerprint, seen: make(map[string]checkpointRecord, len(p.recs))}
	kept := p.recs[:0]
	for _, rec := range p.recs {
		if drop != nil && drop(rec.Key) {
			p.rewrite = true
			continue
		}
		c.seen[rec.Key] = rec
		keys = append(keys, rec.Key)
		kept = append(kept, rec)
	}
	p.recs = kept
	if len(p.quarantined) > 0 {
		c.quarantined = len(p.quarantined)
		quarantine(fsys, dir, p.quarantined)
	}
	if p.rewrite {
		// A quarantined or dropped record, or a lone corrupt header:
		// rewrite the log compacted to its surviving records,
		// crash-atomically, so the next scan is clean.
		var buf bytes.Buffer
		hdr, err := json.Marshal(checkpointHeader{V: checkpointVersion, FP: fingerprint})
		if err != nil {
			return nil, nil, err
		}
		buf.Write(hdr)
		buf.WriteByte('\n')
		for _, rec := range p.recs {
			b, err := json.Marshal(rec)
			if err != nil {
				return nil, nil, err
			}
			buf.Write(frameRecord(b))
		}
		if err := vfs.WriteFileAtomic(fsys, path, buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
		f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		c.f = f
		c.off = int64(buf.Len())
		return c, keys, nil
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if int64(p.good) < int64(len(data)) {
		// Torn tail: cut it off and make the cut durable before the next
		// append can merge into it.
		if err := f.Truncate(int64(p.good)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(p.good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	c.off = int64(p.good)
	if p.good == 0 {
		hdr, err := json.Marshal(checkpointHeader{V: checkpointVersion, FP: fingerprint})
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		c.off = int64(len(hdr) + 1)
	}
	c.f = f
	return c, keys, nil
}

// quarantine appends the raw bytes of rejected records to
// quarantine.jsonl, one line each. Best effort: quarantine exists for
// forensics, and a failure to write it must not block recovery of the
// healthy records.
func quarantine(fsys vfs.FS, dir string, lines [][]byte) {
	f, err := fsys.OpenFile(filepath.Join(dir, quarantineFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	for _, line := range lines {
		f.Write(append(line, '\n'))
	}
	f.Sync()
}

// Fingerprint returns the configuration fingerprint the store was
// opened with.
func (c *Checkpoint) Fingerprint() string { return c.fp }

// Quarantined returns how many corrupt records were detected and
// quarantined when the store was opened.
func (c *Checkpoint) Quarantined() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// Put appends one completed run and fsyncs it; the record is durable
// when Put returns nil. Duplicate keys are ignored (the single-flight
// cache already guarantees one simulation per key; a resumed run only
// writes keys it actually simulated). Errors are returned for callers
// that must react (the service's degraded mode) and also latched for
// Err/Close — a broken checkpoint must not abort a healthy sweep.
func (c *Checkpoint) Put(key string, res sim.Result, samples []byte) error {
	return c.put(checkpointRecord{V: checkpointVersion, Key: key, Result: res, Samples: samples})
}

// PutBlob appends one opaque payload under key (the service's
// figure-table results). Blob and run records share the key space.
func (c *Checkpoint) PutBlob(key string, blob []byte) error {
	return c.put(checkpointRecord{V: checkpointVersion, Key: key, Blob: blob, IsBlob: true})
}

func (c *Checkpoint) put(rec checkpointRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		return err
	}
	framed := frameRecord(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.seen[rec.Key]; ok {
		return nil
	}
	if c.f != nil {
		if c.dirty {
			if err := c.repairLocked(); err != nil {
				if c.err == nil {
					c.err = err
				}
				return err
			}
		}
		if _, err := c.f.Write(framed); err != nil {
			c.dirty = true
			if c.err == nil {
				c.err = err
			}
			return err
		}
		if err := c.f.Sync(); err != nil {
			// The bytes are complete but not durable; treat them as torn
			// so the retry rewrites them from the known-good offset.
			c.dirty = true
			if c.err == nil {
				c.err = err
			}
			return err
		}
		c.off += int64(len(framed))
	}
	c.seen[rec.Key] = rec
	return nil
}

// repairLocked cuts a possibly-torn tail back to the last durable
// record and makes the cut durable, so the next append starts on a
// clean record boundary. Called with c.mu held, before any append
// that follows a failed one.
func (c *Checkpoint) repairLocked() error {
	if err := c.f.Truncate(c.off); err != nil {
		return err
	}
	if _, err := c.f.Seek(c.off, io.SeekStart); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.dirty = false
	return nil
}

// Sync flushes the store file; a nil return means every acknowledged
// record is on stable storage. Used by the service's recovery probe
// to test whether a previously failing disk has healed.
func (c *Checkpoint) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	return c.f.Sync()
}

// Get returns the stored result for key, if present as a run record.
func (c *Checkpoint) Get(key string) (sim.Result, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.seen[key]
	if ok && rec.IsBlob {
		return sim.Result{}, nil, false
	}
	return rec.Result, rec.Samples, ok
}

// GetBlob returns the stored payload for key, if present as a blob
// record.
func (c *Checkpoint) GetBlob(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.seen[key]
	if !ok || !rec.IsBlob {
		return nil, false
	}
	return rec.Blob, true
}

// Has reports whether key is stored (run or blob record).
func (c *Checkpoint) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.seen[key]
	return ok
}

// Len returns the number of stored runs.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Err returns the first write error, if any.
func (c *Checkpoint) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ClearErr drops the latched write error. The service calls this once
// its recovery probe has re-persisted everything that failed, so an
// already-recovered incident does not surface again at Close.
func (c *Checkpoint) ClearErr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.err = nil
}

// Close flushes and closes the store, returning the first error seen.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		if err := c.f.Close(); err != nil && c.err == nil {
			c.err = err
		}
		c.f = nil
	}
	return c.err
}
