package workload

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Class partitions the suite the way the paper's evaluation does.
type Class int

// Workload classes.
const (
	// Irregular is the memory-bound irregular SPEC2006 subset (Fig. 5).
	Irregular Class = iota
	// Regular is the remaining memory-intensive SPEC subset (Fig. 8).
	Regular
	// Server is the CloudSuite-like set (Fig. 14).
	Server
)

// Spec names one benchmark and builds its instruction stream.
type Spec struct {
	Name  string
	Class Class
	build func(g *Graphs, seed uint64, base mem.Addr) trace.Reader
}

// New returns an endless trace for this benchmark, shuffling any
// pointer-chase graph it walks privately. seed perturbs schedules (mix
// diversity); base offsets the address space (one disjoint space per
// core).
func (s Spec) New(seed uint64, base mem.Addr) trace.Reader { return s.build(nil, seed, base) }

// NewFrom returns the trace New returns, record for record, taking its
// chase graph from g instead of shuffling it again when g holds it
// (nil g is New).
func (s Spec) NewFrom(g *Graphs, seed uint64, base mem.Addr) trace.Reader {
	return s.build(g, seed, base)
}

func chaseSpec(name string, class Class, p ChaseParams) Spec {
	return Spec{Name: name, Class: class, build: func(g *Graphs, seed uint64, base mem.Addr) trace.Reader {
		return newChase(g, p, seed^hashName(name), base)
	}}
}

func strideSpec(name string, class Class, p StrideParams) Spec {
	return Spec{Name: name, Class: class, build: func(_ *Graphs, seed uint64, base mem.Addr) trace.Reader {
		return NewStride(p, seed^hashName(name), base)
	}}
}

// mixSpec interleaves an irregular chase with a regular strided phase.
func mixSpec(name string, class Class, cp ChaseParams, sp StrideParams, wChase, wStride int) Spec {
	return Spec{Name: name, Class: class, build: func(g *Graphs, seed uint64, base mem.Addr) trace.Reader {
		c := newChase(g, cp, seed^hashName(name), base)
		s := NewStride(sp, seed^hashName(name)^0x5555, base+(1<<36))
		return NewMix(256, []trace.Reader{c, s}, []int{wChase, wStride})
	}}
}

// Replay wraps a materialized corpus trace as a benchmark Spec: New
// streams the trace from disk in an endless loop (traces never fully
// materialize in memory), offsetting data addresses by base so one
// trace can replay on several cores with the disjoint address spaces
// multi-core runs assume. The generator seed is ignored — a trace is
// already a fixed instruction stream; its content hash is its
// identity. Construction with an id missing from the corpus panics
// (callers validate first via Corpus.Has; the experiment engine's
// panic isolation turns a late loss into a per-cell failure).
func Replay(name string, c *trace.Corpus, id string, class Class) Spec {
	return Spec{Name: name, Class: class, build: func(_ *Graphs, _ uint64, base mem.Addr) trace.Reader {
		r, err := c.OpenLoop(id)
		if err != nil {
			panic(fmt.Errorf("workload: replaying %s: %w", id, err))
		}
		return trace.Offset(r, base)
	}}
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// IrregularSuite returns the irregular SPEC subset of Fig. 5: memory
// bound, pointer-based, PC-localized temporal streams. Footprints and
// reuse skew are sized so that metadata working sets straddle the
// 512KB-1MB store sizes, as the paper's Fig. 1/Fig. 9 imply.
func IrregularSuite() []Spec {
	return []Spec{
		// Modest hot set, lots of noise: the smallest Triage win.
		chaseSpec("gcc_166", Irregular, ChaseParams{
			Nodes: 128 << 10, Streams: 3, HotFrac: 0.25, HotProb: 0.55,
			RunLen: 96, SkipProb: 0.06, Gap: 9, StoreEvery: 6, NoiseProb: 0.08,
		}),
		// Large metadata working set (~320K entries > 1MB store): the
		// case where unbounded-metadata prefetchers (MISB) keep an edge
		// and Hawkeye's triage of entries matters most.
		chaseSpec("mcf", Irregular, ChaseParams{
			Nodes: 448 << 10, Streams: 1, HotFrac: 0.1, HotProb: 0.42,
			WarmFrac: 0.55, WarmProb: 0.5,
			RunLen: 280, SkipProb: 0.04, Gap: 5, StoreEvery: 8, NoiseProb: 0.02,
		}),
		mixSpec("soplex_k", Irregular, ChaseParams{
			Nodes: 160 << 10, Streams: 2, HotFrac: 0.4, HotProb: 0.7,
			RunLen: 128, SkipProb: 0.05, Gap: 6, StoreEvery: 10, NoiseProb: 0.03,
		}, StrideParams{
			Streams: 3, StrideLines: 1, WorkingSetLines: 192 << 10, Gap: 6, SharedPC: true,
		}, 3, 2),
		chaseSpec("omnetpp", Irregular, ChaseParams{
			Nodes: 288 << 10, Streams: 3, HotFrac: 0.1, HotProb: 0.42,
			WarmFrac: 0.39, WarmProb: 0.5,
			RunLen: 160, SkipProb: 0.05, Gap: 7, StoreEvery: 8, NoiseProb: 0.02,
		}),
		chaseSpec("astar_lakes", Irregular, ChaseParams{
			Nodes: 192 << 10, Streams: 1, HotFrac: 0.35, HotProb: 0.72,
			RunLen: 112, SkipProb: 0.07, Gap: 10, StoreEvery: 7, NoiseProb: 0.05,
		}),
		mixSpec("sphinx3", Irregular, ChaseParams{
			Nodes: 224 << 10, Streams: 3, HotFrac: 0.18, HotProb: 0.5,
			WarmFrac: 0.42, WarmProb: 0.44,
			RunLen: 320, SkipProb: 0.03, Gap: 5, StoreEvery: 0, NoiseProb: 0.02,
		}, StrideParams{
			Streams: 2, StrideLines: 2, WorkingSetLines: 256 << 10, Gap: 5, SharedPC: true,
		}, 4, 1),
		// Dense reuse over a store-sized metadata set: the biggest win.
		chaseSpec("xalancbmk", Irregular, ChaseParams{
			Nodes: 160 << 10, Streams: 6, HotFrac: 0.6, HotProb: 0.92,
			RunLen: 384, SkipProb: 0.02, Gap: 5, StoreEvery: 9, NoiseProb: 0.02,
		}),
	}
}

// RegularSuite returns the remaining memory-intensive SPEC subset of
// Fig. 8: strided and streaming kernels where BO shines, plus the
// capacity-sensitive loop benchmarks (bzip2) where a careless metadata
// partition hurts.
func RegularSuite() []Spec {
	seq := func(name string, streams, stride, wsLines, gap int) Spec {
		return strideSpec(name, Regular, StrideParams{
			Streams: streams, StrideLines: stride, WorkingSetLines: wsLines,
			Gap: gap, StoreEvery: 16,
		})
	}
	// multi-array kernels walk several arrays from one load PC: the
	// baseline per-PC stride prefetcher fails, BO succeeds (Fig. 8).
	seqShared := func(name string, streams, stride, wsLines, gap int) Spec {
		return strideSpec(name, Regular, StrideParams{
			Streams: streams, StrideLines: stride, WorkingSetLines: wsLines,
			Gap: gap, StoreEvery: 16, SharedPC: true,
		})
	}
	return []Spec{
		seq("perlbench", 2, 1, 24<<10, 12),
		// bzip2: a dense reuse loop (whose temporal pairs bait Triage's
		// sizer into provisioning a store) plus a sweep that makes the
		// total working set barely fit the LLC. The provisioned
		// metadata only yields redundant prefetches while the lost LLC
		// capacity costs real misses — the paper's Fig. 8 bzip2 story.
		mixSpec("bzip2", Regular, ChaseParams{
			Nodes: 18 << 10, Streams: 2, HotFrac: 1, HotProb: 1,
			RunLen: 160, SkipProb: 0.02, Gap: 7, StoreEvery: 12,
		}, StrideParams{
			Streams: 1, StrideLines: 1, WorkingSetLines: 7 << 10, Gap: 7,
		}, 2, 1),
		seq("gcc_ref", 3, 2, 48<<10, 10),
		seqShared("bwaves", 4, 1, 0, 5),
		seq("gamess", 1, 1, 4<<10, 24),
		seqShared("milc", 2, 4, 256<<10, 6),
		seqShared("zeusmp", 3, 2, 128<<10, 7),
		seq("gromacs", 2, 1, 12<<10, 16),
		seqShared("cactusADM", 2, 3, 96<<10, 8),
		seqShared("leslie3d", 4, 2, 160<<10, 6),
		seq("namd", 1, 1, 8<<10, 20),
		mixSpec("gobmk", Regular, ChaseParams{
			Nodes: 24 << 10, Streams: 2, HotFrac: 0.4, HotProb: 0.7,
			RunLen: 48, SkipProb: 0.1, Gap: 14, NoiseProb: 0.1,
		}, StrideParams{Streams: 1, StrideLines: 1, WorkingSetLines: 16 << 10, Gap: 12}, 1, 2),
		seq("dealII", 2, 2, 64<<10, 9),
		seq("soplex_rail", 3, 1, 96<<10, 7),
		seq("povray", 1, 1, 4<<10, 26),
		seq("calculix", 2, 2, 40<<10, 11),
		seq("hmmer", 1, 1, 10<<10, 13),
		seq("sjeng", 1, 1, 6<<10, 22),
		seqShared("GemsFDTD", 4, 2, 224<<10, 5),
		seqShared("libquantum", 1, 1, 0, 6),
		seq("h264ref", 2, 1, 20<<10, 12),
		seq("tonto", 1, 2, 16<<10, 15),
		seqShared("lbm", 4, 1, 0, 5),
		mixSpec("astar_rivers", Regular, ChaseParams{
			Nodes: 48 << 10, Streams: 2, HotFrac: 0.35, HotProb: 0.7,
			RunLen: 64, SkipProb: 0.08, Gap: 10, NoiseProb: 0.06,
		}, StrideParams{Streams: 2, StrideLines: 1, WorkingSetLines: 64 << 10, Gap: 8}, 1, 1),
		seqShared("wrf", 3, 2, 144<<10, 7),
	}
}

// CloudSuite returns the server workloads of Fig. 14. Cassandra,
// classification and cloud9 are irregular with large instruction/data
// footprints; nutch and streaming are regular and dominated by
// compulsory misses (fresh data), which no temporal prefetcher can
// cover.
func CloudSuite() []Spec {
	return []Spec{
		chaseSpec("cassandra", Server, ChaseParams{
			Nodes: 256 << 10, Streams: 5, HotFrac: 0.45, HotProb: 0.75,
			RunLen: 192, SkipProb: 0.05, Gap: 7, StoreEvery: 6, NoiseProb: 0.06,
		}),
		chaseSpec("classification", Server, ChaseParams{
			Nodes: 224 << 10, Streams: 4, HotFrac: 0.5, HotProb: 0.8,
			RunLen: 224, SkipProb: 0.04, Gap: 6, StoreEvery: 8, NoiseProb: 0.05,
		}),
		chaseSpec("cloud9", Server, ChaseParams{
			Nodes: 192 << 10, Streams: 6, HotFrac: 0.45, HotProb: 0.72,
			RunLen: 128, SkipProb: 0.06, Gap: 8, StoreEvery: 5, NoiseProb: 0.08,
		}),
		strideSpec("nutch", Server, StrideParams{
			Streams: 3, StrideLines: 1, WorkingSetLines: 0, Gap: 8, StoreEvery: 12, SharedPC: true,
		}),
		strideSpec("streaming", Server, StrideParams{
			Streams: 4, StrideLines: 2, WorkingSetLines: 0, Gap: 5, StoreEvery: 10, SharedPC: true,
		}),
	}
}

// All returns every benchmark.
func All() []Spec {
	var out []Spec
	out = append(out, IrregularSuite()...)
	out = append(out, RegularSuite()...)
	out = append(out, CloudSuite()...)
	return out
}

// ByName finds a benchmark in any suite.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists all benchmark names, sorted.
func Names() []string {
	specs := All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Mix is built by Mixes: one benchmark per core.
type MixSpec struct {
	Name  string
	Specs []Spec
}

// Mixes builds n multi-programmed mixes of the given width, seeded
// deterministically. With irregularOnly, benchmarks come from the
// irregular suite only (the paper's 30 irregular mixes); otherwise from
// the union of irregular and regular memory-bound benchmarks (the 50
// mixed mixes).
func Mixes(n, width int, seed uint64, irregularOnly bool) []MixSpec {
	pool := IrregularSuite()
	if !irregularOnly {
		pool = append(pool, RegularSuite()...)
	}
	state := seed*2862933555777941757 + 3037000493
	rnd := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	mixes := make([]MixSpec, 0, n)
	for i := 0; i < n; i++ {
		m := MixSpec{Name: fmt.Sprintf("mix%d", i+1)}
		for c := 0; c < width; c++ {
			m.Specs = append(m.Specs, pool[rnd(len(pool))])
		}
		mixes = append(mixes, m)
	}
	return mixes
}
