// The trace corpus: a content-addressed on-disk set of TRC2 traces,
// keyed the way the PR 4 result store keys results — by hash of
// content, so a RunSpec can name a trace by id, the service and a
// future cluster can share one corpus, and the same records are never
// stored twice.

package trace

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// corpusExt is the on-disk suffix of corpus entries; the basename is
// the canonical id with ':' replaced by '-' (filesystem-safe):
// sha256-<hex>.trc2.
const corpusExt = ".trc2"

// CanonicalTraceID normalizes a trace id to "sha256:<64 hex>". Bare
// hex is accepted; anything else is an error.
func CanonicalTraceID(id string) (string, error) {
	hexPart := strings.TrimPrefix(id, "sha256:")
	if len(hexPart) != 64 {
		return "", fmt.Errorf("trace: bad trace id %q (want sha256:<64 hex digits>)", id)
	}
	for i := 0; i < len(hexPart); i++ {
		c := hexPart[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("trace: bad trace id %q (want sha256:<64 hex digits>)", id)
		}
	}
	return "sha256:" + hexPart, nil
}

// Corpus is a directory of content-addressed TRC2 traces.
type Corpus struct {
	dir string
}

// OpenCorpus opens (creating if needed) the corpus directory.
func OpenCorpus(dir string) (*Corpus, error) {
	if dir == "" {
		return nil, errors.New("trace: corpus directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: opening corpus: %w", err)
	}
	return &Corpus{dir: dir}, nil
}

// Dir returns the corpus directory.
func (c *Corpus) Dir() string { return c.dir }

// Path returns the on-disk path of the trace named by id (which may or
// may not exist — see Has).
func (c *Corpus) Path(id string) (string, error) {
	canon, err := CanonicalTraceID(id)
	if err != nil {
		return "", err
	}
	return filepath.Join(c.dir, strings.Replace(canon, ":", "-", 1)+corpusExt), nil
}

// Has reports whether the trace named by id is present.
func (c *Corpus) Has(id string) bool {
	path, err := c.Path(id)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// List returns the canonical ids of every trace in the corpus, sorted.
func (c *Corpus) List() ([]string, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, corpusExt) {
			continue
		}
		base := strings.TrimSuffix(name, corpusExt)
		hexPart, ok := strings.CutPrefix(base, "sha256-")
		if !ok {
			continue
		}
		id, err := CanonicalTraceID(hexPart)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// CorpusWriter materializes one trace into the corpus. Records stream
// through a WriterV2 into a temporary sibling; Commit seals the
// container, fsyncs, and renames it to its content address — the
// write-tmp / fsync / rename discipline of internal/vfs, so a crash
// never leaves a half-written entry under a valid id.
type CorpusWriter struct {
	c   *Corpus
	f   *os.File
	tw  *WriterV2
	tmp string
}

// Create starts a new corpus entry.
func (c *Corpus) Create() (*CorpusWriter, error) {
	f, err := os.CreateTemp(c.dir, "ingest-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("trace: corpus create: %w", err)
	}
	return &CorpusWriter{c: c, f: f, tw: NewWriterV2(f), tmp: f.Name()}, nil
}

// Write appends one record.
func (cw *CorpusWriter) Write(r Record) error { return cw.tw.Write(r) }

// Count returns the number of records written so far.
func (cw *CorpusWriter) Count() uint64 { return cw.tw.Count() }

// Commit seals the container and publishes it under its content
// address, returning the canonical id. Committing records that are
// already in the corpus is a no-op dedup: the existing entry wins and
// the temporary file is discarded.
func (cw *CorpusWriter) Commit() (string, error) {
	if err := cw.tw.Close(); err != nil {
		cw.Abort()
		return "", err
	}
	id := cw.tw.ContentHash()
	path, err := cw.c.Path(id)
	if err != nil {
		cw.Abort()
		return "", err
	}
	if err := cw.f.Sync(); err != nil {
		cw.Abort()
		return "", fmt.Errorf("trace: corpus commit: %w", err)
	}
	if err := cw.f.Close(); err != nil {
		os.Remove(cw.tmp)
		return "", fmt.Errorf("trace: corpus commit: %w", err)
	}
	if _, err := os.Stat(path); err == nil {
		os.Remove(cw.tmp) // dedup: identical content already stored
		return id, nil
	}
	if err := os.Rename(cw.tmp, path); err != nil {
		os.Remove(cw.tmp)
		return "", fmt.Errorf("trace: corpus commit: %w", err)
	}
	syncCorpusDir(cw.c.dir)
	return id, nil
}

// Abort discards the entry.
func (cw *CorpusWriter) Abort() {
	cw.f.Close()
	os.Remove(cw.tmp)
}

// IngestFrom streams a TRC2 trace from r into the corpus and returns
// the canonical id of the stored entry. The records are decoded and
// re-encoded through a CorpusWriter, so the stored entry is
// content-addressed by construction: a truncated, corrupted, or
// maliciously renamed source can never land under a wrong id. Cluster
// workers use it to fetch traces they lack from the coordinator — pass
// the id the caller expects in want ("" skips the check) and a
// mismatch (or any decode error) aborts the ingest.
func (c *Corpus) IngestFrom(r io.Reader, want string) (string, error) {
	if want != "" {
		canon, err := CanonicalTraceID(want)
		if err != nil {
			return "", err
		}
		want = canon
	}
	dec := NewReaderV2(r)
	cw, err := c.Create()
	if err != nil {
		return "", err
	}
	for {
		rec, ok := dec.Next()
		if !ok {
			break
		}
		if err := cw.Write(rec); err != nil {
			cw.Abort()
			return "", fmt.Errorf("trace: ingest: %w", err)
		}
	}
	if err := dec.Err(); err != nil {
		cw.Abort()
		return "", fmt.Errorf("trace: ingest: %w", err)
	}
	if cw.Count() == 0 {
		cw.Abort()
		return "", errors.New("trace: ingest: source holds no records")
	}
	id, err := cw.Commit()
	if err != nil {
		return "", err
	}
	if want != "" && id != want {
		// Commit already deduped/published under the true id; remove
		// nothing (the content is valid, just not what was asked for)
		// but fail the fetch so the caller does not trust it.
		return "", fmt.Errorf("trace: ingest: content hashes to %s, want %s", id, want)
	}
	return id, nil
}

// syncCorpusDir fsyncs the corpus directory so a just-renamed entry
// survives a crash (best effort, like vfs).
func syncCorpusDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// CorpusFile is one opened corpus trace: a streaming TRC2 decoder plus
// its Close.
type CorpusFile struct {
	*ReaderV2
	f *os.File
}

// Close releases the underlying file.
func (cf *CorpusFile) Close() error { return cf.f.Close() }

// Open returns a streaming decoder over the trace named by id.
func (c *Corpus) Open(id string) (*CorpusFile, error) {
	path, err := c.Path(id)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("trace: %s not in corpus %s", id, c.dir)
		}
		return nil, err
	}
	return &CorpusFile{ReaderV2: NewReaderV2(f), f: f}, nil
}

// OpenLoop returns an endless Reader that replays the trace named by
// id, reopening the file at each clean end — the trace never fully
// materializes in memory no matter how many passes a long simulation
// needs (the paper restarts early-finishing benchmarks in mixes,
// §4.1). The first pass is opened eagerly so a missing entry is an
// error here, not later; a decode failure mid-simulation (the file
// corrupted after open) panics with the decoder's error, which the
// experiment engine's panic isolation converts to a structured
// per-cell failure.
func (c *Corpus) OpenLoop(id string) (Reader, error) {
	canon, err := CanonicalTraceID(id)
	if err != nil {
		return nil, err
	}
	first, err := c.Open(canon)
	if err != nil {
		return nil, err
	}
	return &loopFile{c: c, id: canon, cur: first}, nil
}

type loopFile struct {
	c   *Corpus
	id  string
	cur *CorpusFile
	n   uint64 // records delivered in the current pass
}

// Next implements Reader.
func (lf *loopFile) Next() (Record, bool) {
	for {
		rec, ok := lf.cur.Next()
		if ok {
			lf.n++
			return rec, true
		}
		if err := lf.cur.Err(); err != nil {
			lf.cur.Close()
			panic(fmt.Errorf("trace: replaying %s: %w", lf.id, err))
		}
		if lf.n == 0 {
			lf.cur.Close()
			panic(fmt.Errorf("trace: replaying %s: trace is empty, cannot loop", lf.id))
		}
		lf.cur.Close()
		next, err := lf.c.Open(lf.id)
		if err != nil {
			panic(fmt.Errorf("trace: replaying %s: %w", lf.id, err))
		}
		lf.cur = next
		lf.n = 0
	}
}
