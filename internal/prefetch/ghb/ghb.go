// Package ghb implements a Global History Buffer delta-correlation
// prefetcher, GHB G/DC (Nesbit & Smith, HPCA'04 / IEEE Micro'05) — the
// paper's §2.1 example of a *weaker* correlation that fits on chip:
// instead of memorizing address pairs, it memorizes PC-localized delta
// pairs, which compresses regular and semi-regular patterns but cannot
// express arbitrary pointer chains.
//
// Mechanism: a circular global history buffer of recent miss addresses,
// with per-PC linked lists threading through it. On a miss, the last
// two deltas of the PC's stream form a key; the history is searched for
// the previous occurrence of that delta pair, and the deltas that
// followed it then are replayed from the current address.
package ghb

import (
	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

type histEntry struct {
	line mem.Line
	prev int // index of this PC's previous entry, -1 if none
	pc   uint64
	seq  uint64 // monotone sequence number to detect overwritten links
}

// Prefetcher is a GHB G/DC prefetcher.
type Prefetcher struct {
	buf  []histEntry
	head int
	seq  uint64
	// PC -> most recent buffer slot, one entry per buffer slot. A full
	// index evicts the PC that recorded least recently: at least
	// len(buf) records followed that PC's last, so its slot is already
	// overwritten and the index behaves as an unbounded one would.
	index  *flat.LRU[int]
	degree int
}

// New returns a GHB prefetcher with the given history size in entries
// (Nesbit & Smith use 256-512).
func New(entries int) *Prefetcher {
	if entries < 8 {
		entries = 8
	}
	return &Prefetcher{
		buf:    make([]histEntry, entries),
		index:  flat.NewLRU[int](entries),
		degree: 1,
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "ghb-gdc" }

// SetDegree implements prefetch.DegreeSetter.
func (p *Prefetcher) SetDegree(d int) {
	if d >= 1 {
		p.degree = d
	}
}

// chain returns up to n most recent lines of pc's stream, newest first.
func (p *Prefetcher) chain(pc uint64, n int) []mem.Line {
	out := make([]mem.Line, 0, n)
	slot, ok := p.index.Find(pc)
	if !ok {
		return out
	}
	idx := *p.index.At(slot)
	seq := p.buf[idx].seq
	for len(out) < n {
		e := p.buf[idx]
		if e.pc != pc || e.seq > seq {
			break // link overwritten by buffer wrap
		}
		out = append(out, e.line)
		seq = e.seq
		if e.prev < 0 {
			break
		}
		// Validate the link target still belongs to this PC and is older.
		t := p.buf[e.prev]
		if t.pc != pc || t.seq >= e.seq {
			break
		}
		idx = e.prev
	}
	return out
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) []prefetch.Request {
	if !ev.Miss && !ev.PrefetchHit {
		return nil
	}
	reqs := p.predict(ev)
	p.record(ev)
	return reqs
}

// predict matches the current delta pair against the PC's history.
func (p *Prefetcher) predict(ev prefetch.Event) []prefetch.Request {
	hist := p.chain(ev.PC, len(p.buf))
	if len(hist) < 2 {
		return nil
	}
	// Current key: the two most recent deltas ending at ev.Line.
	d1 := int64(ev.Line) - int64(hist[0])
	d2 := int64(hist[0]) - int64(hist[1])
	if d1 == 0 || d2 == 0 {
		return nil
	}
	// Scan the stream (newest-first) for a previous (d2, d1) pair; the
	// deltas that followed it are the prediction. Prefer a match deep
	// enough (i >= degree) to supply a full prediction run; fall back to
	// shallower matches.
	match := -1
	for i := 1; i+2 < len(hist); i++ {
		e1 := int64(hist[i]) - int64(hist[i+1])
		e2 := int64(hist[i+1]) - int64(hist[i+2])
		if e1 != d1 || e2 != d2 {
			continue
		}
		match = i
		if i >= p.degree {
			break
		}
	}
	if match < 0 {
		return nil
	}
	// hist[match-1], hist[match-2], ... are the lines that followed the
	// matched position; replay their forward deltas from ev.Line.
	var reqs []prefetch.Request
	sum := int64(0)
	for k := 1; k <= p.degree && match-k >= 0; k++ {
		sum += int64(hist[match-k]) - int64(hist[match-k+1])
		target := int64(ev.Line) + sum
		if target < 0 {
			break
		}
		reqs = append(reqs, prefetch.Request{Line: mem.Line(target), PC: ev.PC})
	}
	return reqs
}

// record appends ev to the history and links it into the PC's stream.
func (p *Prefetcher) record(ev prefetch.Event) {
	p.seq++
	prev := -1
	if slot, ok := p.index.Find(ev.PC); ok && p.buf[*p.index.At(slot)].pc == ev.PC {
		prev = *p.index.At(slot)
	}
	p.buf[p.head] = histEntry{line: ev.Line, prev: prev, pc: ev.PC, seq: p.seq}
	p.index.Insert(ev.PC, p.head)
	p.head = (p.head + 1) % len(p.buf)
}
