// Package stride implements a classic per-PC stride prefetcher
// (Baer & Chen, 1995). Table 1 attaches one to the L1D of the baseline
// machine; it is also a useful regular-pattern comparison point.
package stride

import (
	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

type entry struct {
	lastLine   mem.Line
	stride     int64
	confidence int8
}

// Prefetcher is a per-PC stride predictor with 2-bit confidence.
type Prefetcher struct {
	table     *flat.LRU[entry] // PC -> entry; a new PC evicts the LRU one
	max       int
	degree    int
	maxStride int64
	reqs      []prefetch.Request // Train scratch, reused every call
}

// Option configures the prefetcher.
type Option func(*Prefetcher)

// WithDegree sets how many strides ahead to prefetch.
func WithDegree(d int) Option {
	return func(p *Prefetcher) { p.degree = d }
}

// WithTableSize bounds the PC table.
func WithTableSize(n int) Option {
	return func(p *Prefetcher) { p.max = n }
}

// New returns a stride prefetcher (default: 256-entry table, degree 2,
// strides confined to a 4KB page as in real hardware).
func New(opts ...Option) *Prefetcher {
	p := &Prefetcher{max: 256, degree: 2, maxStride: 64}
	for _, o := range opts {
		o(p)
	}
	p.table = flat.NewLRU[entry](p.max)
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "stride" }

// SetDegree implements prefetch.DegreeSetter.
func (p *Prefetcher) SetDegree(d int) { p.degree = d }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) []prefetch.Request {
	slot, ok := p.table.Find(ev.PC)
	if !ok {
		p.table.Insert(ev.PC, entry{lastLine: ev.Line})
		return nil
	}
	p.table.TouchFront(slot)
	e := p.table.At(slot)
	stride := int64(ev.Line) - int64(e.lastLine)
	if stride > p.maxStride || stride < -p.maxStride {
		// Cross-page jump: hardware stride predictors train only within
		// a page. Reset rather than learn a wild stride.
		e.lastLine = ev.Line
		e.stride = 0
		e.confidence = 0
		return nil
	}
	if stride == e.stride && stride != 0 {
		if e.confidence < 3 {
			e.confidence++
		}
	} else {
		if e.confidence > 0 {
			e.confidence--
		}
		if e.confidence == 0 {
			e.stride = stride
		}
	}
	e.lastLine = ev.Line
	if e.confidence < 2 || e.stride == 0 {
		return nil
	}
	p.reqs = p.reqs[:0]
	for i := 1; i <= p.degree; i++ {
		target := int64(ev.Line) + e.stride*int64(i)
		if target < 0 {
			break
		}
		p.reqs = append(p.reqs, prefetch.Request{Line: mem.Line(target), PC: ev.PC})
	}
	if len(p.reqs) == 0 {
		return nil
	}
	return p.reqs
}
