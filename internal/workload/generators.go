// Package workload synthesizes the benchmark suite. Real SPEC2006 /
// CloudSuite traces are not redistributable, so each benchmark is
// replaced by a deterministic generator that reproduces the statistics
// temporal prefetching is sensitive to: PC-localized repeat traversals
// over shuffled (spatially irregular) node graphs, working-set and
// metadata-footprint sizes relative to the LLC, metadata reuse skew
// (Fig. 1), and the regular strided/streaming behavior of the regular
// subset. DESIGN.md §2 documents the substitution argument.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/trace"
)

// ChaseParams configures a PC-localized pointer-chase generator, the
// access-pattern core of the irregular benchmarks (mcf, omnetpp,
// xalancbmk, ...).
type ChaseParams struct {
	// Nodes is the footprint in cache lines (one node per line).
	Nodes int
	// Streams is the number of concurrently chased linked structures,
	// each with its own load PC.
	Streams int
	// HotFrac is the fraction of the traversal order that is "hot";
	// HotProb is the probability a traversal run starts there. Skewed
	// values reproduce the Fig. 1 metadata-reuse distribution.
	HotFrac float64
	HotProb float64
	// WarmFrac/WarmProb optionally add a middle reuse tier right after
	// the hot region: visited regularly but less often. A warm tier
	// sized between the 512KB and 1MB metadata capacities is what makes
	// the store-size choice matter (Figs. 9, 15, 19).
	WarmFrac float64
	WarmProb float64
	// RunLen is the number of nodes followed per run before jumping to
	// a new start (temporal-stream break).
	RunLen int
	// SkipProb occasionally skips a node mid-run, injecting prediction
	// noise (bounds temporal-prefetch accuracy below 100%).
	SkipProb float64
	// Gap is the number of non-memory instructions between loads.
	Gap int
	// StoreEvery inserts a store every N loads (0 = never).
	StoreEvery int
	// NoiseProb replaces a slot's load with an uncorrelated random load
	// from a scratch region (separate PC).
	NoiseProb float64
}

// chase is the generator state.
type chase struct {
	p      ChaseParams
	base   mem.Addr
	order  []uint32 // traversal order: position -> node index (read-only, maybe shared)
	pos    []int    // per-stream position
	steps  []int    // per-stream nodes followed in the current run
	rng    *rand.Rand
	stream int
	loads  uint64

	buf []trace.Record
	idx int
}

// NewChase returns an endless Reader for the given parameters. base
// offsets all addresses (multi-core runs give each core a disjoint
// address space); seed fixes the permutation and run schedule.
func NewChase(p ChaseParams, seed uint64, base mem.Addr) trace.Reader {
	return newChase(nil, p, seed, base)
}

// newChase builds NewChase's reader, taking its node permutation from g
// (nil shuffles it privately).
func newChase(g *Graphs, p ChaseParams, seed uint64, base mem.Addr) trace.Reader {
	if p.Nodes < 4 || p.Nodes > math.MaxInt32 {
		panic("workload: ChaseParams.Nodes must be in [4, 2^31)")
	}
	if p.Streams < 1 {
		p.Streams = 1
	}
	if p.RunLen < 1 {
		p.RunLen = 64
	}
	order, src := g.graph(p.Nodes, seed)
	c := &chase{
		p: p, base: base, order: order, rng: rand.New(src),
		pos:   make([]int, p.Streams),
		steps: make([]int, p.Streams),
	}
	for s := range c.pos {
		c.pos[s] = c.runStart()
	}
	return c
}

// runStart picks a new traversal start, hot- then warm-biased.
func (c *chase) runStart() int {
	hotN := int(c.p.HotFrac * float64(c.p.Nodes))
	r := c.rng.Float64()
	if hotN > 0 && r < c.p.HotProb {
		return c.rng.Intn(hotN)
	}
	warmN := int(c.p.WarmFrac * float64(c.p.Nodes))
	if warmN > 0 && r < c.p.HotProb+c.p.WarmProb {
		return hotN + c.rng.Intn(warmN)
	}
	return c.rng.Intn(c.p.Nodes)
}

// addrAt returns the byte address of the node at traversal position p.
func (c *chase) addrAt(p int) mem.Addr {
	return c.base + mem.Addr(c.order[p])*mem.LineSize
}

// Next implements trace.Reader.
func (c *chase) Next() (trace.Record, bool) {
	if c.idx >= len(c.buf) {
		c.refill()
	}
	r := c.buf[c.idx]
	c.idx++
	return r, true
}

// pcStream returns the load PC of stream s.
func pcStream(s int) uint64 { return 0x400000 + uint64(s)*4 }

const (
	pcNoise = 0x700000
	pcStore = 0x710000
	pcNon   = 0x720000
)

// refill generates one slot: Gap non-memory instructions followed by
// one load (and occasionally a store), rotating round-robin across
// streams so that a stream's chain dependency is Streams loads back.
func (c *chase) refill() {
	c.buf = c.buf[:0]
	c.idx = 0
	for k := 0; k < c.p.Gap; k++ {
		c.buf = append(c.buf, trace.Record{PC: pcNon + uint64(k)*4, Op: trace.NonMem})
	}
	s := c.stream
	c.stream = (c.stream + 1) % c.p.Streams

	if c.p.NoiseProb > 0 && c.rng.Float64() < c.p.NoiseProb {
		// Uncorrelated scratch access; independent of the chains.
		addr := c.base + mem.Addr(1<<32) + mem.Addr(c.rng.Intn(1<<20))*mem.LineSize
		c.buf = append(c.buf, trace.Record{PC: pcNoise, Op: trace.Load, Addr: addr})
		return
	}

	// Advance the stream; runs end after RunLen nodes (with jitter) or
	// at the footprint boundary.
	pos := c.pos[s]
	load := trace.Record{
		PC:      pcStream(s),
		Op:      trace.Load,
		Addr:    c.addrAt(pos),
		LoadDep: uint8(c.p.Streams),
	}
	c.buf = append(c.buf, load)
	c.loads++

	step := 1
	if c.p.SkipProb > 0 && c.rng.Float64() < c.p.SkipProb {
		step = 2
	}
	pos += step
	c.steps[s]++
	// Runs end after this stream has followed RunLen nodes (per-stream
	// counters: a shared counter would make run breaks land on the same
	// stream whenever Streams divides RunLen) or at the footprint edge.
	if pos >= c.p.Nodes || c.steps[s] >= c.p.RunLen {
		pos = c.runStart()
		c.steps[s] = 0
	}
	c.pos[s] = pos

	if c.p.StoreEvery > 0 && c.loads%uint64(c.p.StoreEvery) == 0 {
		addr := c.base + mem.Addr(1<<33) + mem.Addr(c.loads%512)*mem.LineSize
		c.buf = append(c.buf, trace.Record{PC: pcStore, Op: trace.Store, Addr: addr})
	}
}

// StrideParams configures a regular strided generator (the regular
// SPEC subset and streaming server workloads).
type StrideParams struct {
	// Streams is the number of concurrent strided walkers.
	Streams int
	// StrideLines is the per-access stride in cache lines.
	StrideLines int
	// WorkingSetLines bounds each stream's region; the walker wraps
	// there. Zero means an endless fresh stream (pure compulsory
	// misses — what makes temporal prefetchers useless on nutch/
	// streaming, Fig. 14).
	WorkingSetLines int
	// Gap is the number of non-memory instructions between loads.
	Gap int
	// StoreEvery inserts a store every N loads (0 = never).
	StoreEvery int
	// SharedPC issues all streams from one load PC (an array-of-structs
	// loop walking several arrays). A per-PC stride predictor sees wild
	// apparent strides and fails; address-space prefetchers like BO
	// still find the offset. This is the pattern class where BO beats
	// the baseline L1 stride prefetcher (Fig. 8).
	SharedPC bool
}

type strider struct {
	p     StrideParams
	base  mem.Addr
	off   []uint64 // per-stream advance within its region
	s     int
	loads uint64
	buf   []trace.Record
	idx   int
}

// strideRegionGap separates stream regions in lines.
const strideRegionGap = 1 << 24

// NewStride returns an endless Reader of strided accesses.
func NewStride(p StrideParams, seed uint64, base mem.Addr) trace.Reader {
	if p.Streams < 1 {
		p.Streams = 1
	}
	if p.StrideLines < 1 {
		p.StrideLines = 1
	}
	st := &strider{p: p, base: base, off: make([]uint64, p.Streams)}
	for i := range st.off {
		st.off[i] = (seed + uint64(i)*13) % 64 // stagger phases
	}
	return st
}

// Next implements trace.Reader.
func (st *strider) Next() (trace.Record, bool) {
	if st.idx >= len(st.buf) {
		st.refill()
	}
	r := st.buf[st.idx]
	st.idx++
	return r, true
}

func (st *strider) refill() {
	st.buf = st.buf[:0]
	st.idx = 0
	for k := 0; k < st.p.Gap; k++ {
		st.buf = append(st.buf, trace.Record{PC: pcNon + uint64(k)*4, Op: trace.NonMem})
	}
	s := st.s
	st.s = (st.s + 1) % st.p.Streams
	off := st.off[s]
	if st.p.WorkingSetLines > 0 {
		off %= uint64(st.p.WorkingSetLines)
	}
	line := uint64(s)*strideRegionGap + off
	addr := st.base + mem.Addr(line)*mem.LineSize
	pc := uint64(0x500000)
	if !st.p.SharedPC {
		pc += uint64(s) * 4
	}
	st.buf = append(st.buf, trace.Record{PC: pc, Op: trace.Load, Addr: addr})
	st.off[s] += uint64(st.p.StrideLines)
	st.loads++
	if st.p.StoreEvery > 0 && st.loads%uint64(st.p.StoreEvery) == 0 {
		st.buf = append(st.buf, trace.Record{PC: pcStore, Op: trace.Store, Addr: addr + 8})
	}
}

// Mix interleaves readers in blocks according to integer weights:
// weight w contributes runs of w*blockLen records. It reproduces
// benchmarks with mixed phases (sphinx3's strided acoustic scans
// between irregular lexicon walks, soplex's sparse-matrix mixture).
type Mix struct {
	readers []trace.Reader
	weights []int
	block   int
	cur     int
	left    int
}

// NewMix builds a block-interleaved mixture. blockLen is the base run
// length per weight unit.
func NewMix(blockLen int, readers []trace.Reader, weights []int) *Mix {
	if len(readers) == 0 || len(readers) != len(weights) {
		panic("workload: NewMix needs equal non-empty readers and weights")
	}
	for _, w := range weights {
		if w < 1 {
			panic("workload: mix weights must be >= 1")
		}
	}
	m := &Mix{readers: readers, weights: weights, block: blockLen}
	m.left = weights[0] * blockLen
	return m
}

// Next implements trace.Reader.
func (m *Mix) Next() (trace.Record, bool) {
	if m.left == 0 {
		m.cur = (m.cur + 1) % len(m.readers)
		m.left = m.weights[m.cur] * m.block
	}
	m.left--
	return m.readers[m.cur].Next()
}
