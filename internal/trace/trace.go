// Package trace defines the instruction-trace model consumed by the
// simulator, mirroring ChampSim's trace-driven methodology: each record
// is one retired instruction, optionally with a memory operand.
// Generators (package workload) synthesize traces program-by-program.
// On disk a trace is a TRC2 container (v2.go), the one format the
// system writes and reads: cmd/tracegen writes and inspects it, and the
// content-addressed corpus (corpus.go) stores and replays it.
package trace

import "repro/internal/mem"

// Op is the instruction class.
type Op uint8

// Instruction classes.
const (
	// NonMem is a non-memory instruction occupying one ROB slot.
	NonMem Op = iota
	// Load reads Addr.
	Load
	// Store writes Addr.
	Store
)

// Record is one instruction.
type Record struct {
	// PC is the instruction address. Prefetchers PC-localize on it.
	PC uint64
	// Addr is the data address of a Load or Store (unused for NonMem).
	Addr mem.Addr
	// Op classifies the instruction.
	Op Op
	// LoadDep, when non-zero, marks a load whose address depends on the
	// value of the LoadDep-th most recent preceding load (1 = the
	// immediately previous load). Pointer chases set 1; K interleaved
	// chase streams set K so each stream serializes only on itself;
	// array/stride code leaves 0 (fully overlappable).
	LoadDep uint8
}

// Reader supplies a stream of records. Next returns ok=false when the
// stream is exhausted (synthetic generators never exhaust).
type Reader interface {
	Next() (Record, bool)
}

// SliceReader replays an in-memory trace.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader returns a Reader over recs.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (r *SliceReader) Next() (Record, bool) {
	if r.pos >= len(r.recs) {
		return Record{}, false
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, true
}

// Reset rewinds to the beginning.
func (r *SliceReader) Reset() { r.pos = 0 }

// LoopReader replays a finite trace forever (the paper restarts
// early-finishing benchmarks in multi-programmed mixes so contention is
// sustained, §4.1).
type LoopReader struct {
	recs []Record
	pos  int
}

// NewLoopReader returns a Reader that cycles through recs.
func NewLoopReader(recs []Record) *LoopReader {
	if len(recs) == 0 {
		panic("trace: LoopReader needs a non-empty trace")
	}
	return &LoopReader{recs: recs}
}

// Next implements Reader.
func (r *LoopReader) Next() (Record, bool) {
	rec := r.recs[r.pos]
	r.pos++
	if r.pos == len(r.recs) {
		r.pos = 0
	}
	return rec, true
}

// FuncReader adapts a generator function to Reader.
type FuncReader func() (Record, bool)

// Next implements Reader.
func (f FuncReader) Next() (Record, bool) { return f() }

// Collect drains up to n records from r into a slice.
func Collect(r Reader, n int) []Record {
	out := make([]Record, 0, n)
	for len(out) < n {
		rec, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out
}

// Offset wraps r, adding base to the data address of every memory
// record (PCs are left alone: per-core prefetchers localize on them
// independently). It is how one materialized trace replays on several
// cores with the disjoint address spaces the multi-core runs assume.
func Offset(r Reader, base mem.Addr) Reader {
	if base == 0 {
		return r
	}
	return &offsetReader{r: r, base: base}
}

type offsetReader struct {
	r    Reader
	base mem.Addr
}

// Next implements Reader.
func (o *offsetReader) Next() (Record, bool) {
	rec, ok := o.r.Next()
	if ok && rec.Op != NonMem {
		rec.Addr += o.base
	}
	return rec, ok
}
