package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/bo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// run executes a single-core simulation of the reader with the given
// prefetcher.
func run(t *testing.T, r trace.Reader, pf prefetch.Prefetcher, warm, measure uint64) Result {
	t.Helper()
	m, err := New(Options{
		Machine:             config.Default(1),
		Workloads:           []trace.Reader{r},
		Prefetchers:         []prefetch.Prefetcher{pf},
		WarmupInstructions:  warm,
		MeasureInstructions: measure,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

func TestOptionsValidation(t *testing.T) {
	_, err := New(Options{Machine: config.Default(1)})
	if err == nil {
		t.Error("missing workloads accepted")
	}
	_, err = New(Options{
		Machine:             config.Default(2),
		Workloads:           []trace.Reader{trace.NewLoopReader([]trace.Record{{}})},
		MeasureInstructions: 10,
	})
	if err == nil {
		t.Error("workload/core count mismatch accepted")
	}
}

func TestNonMemIPCApproachesWidth(t *testing.T) {
	// Pure non-memory instructions retire at the fetch width.
	r := trace.NewLoopReader([]trace.Record{{PC: 1, Op: trace.NonMem}})
	res := run(t, r, nil, 0, 100000)
	if ipc := res.IPC(); ipc < 3.5 || ipc > 4.01 {
		t.Errorf("non-mem IPC = %.2f, want ~4 (fetch width)", ipc)
	}
}

func TestL1HitsAreFast(t *testing.T) {
	// A tiny working set: everything hits L1 after warmup.
	recs := make([]trace.Record, 0, 64)
	for i := 0; i < 32; i++ {
		recs = append(recs, trace.Record{PC: 10, Op: trace.Load, Addr: mem.Addr(i * 64)})
		recs = append(recs, trace.Record{PC: 11, Op: trace.NonMem})
	}
	res := run(t, trace.NewLoopReader(recs), nil, 10000, 100000)
	if ipc := res.IPC(); ipc < 1.0 {
		t.Errorf("L1-resident IPC = %.2f, too low", ipc)
	}
	if res.DRAM.Total() > 64 {
		t.Errorf("L1-resident loop moved %d lines off-chip", res.DRAM.Total())
	}
}

func TestDRAMBoundChaseIsSlow(t *testing.T) {
	// Serialized pointer chase over 32MB: every load ~a DRAM round trip.
	ch := workload.NewChase(workload.ChaseParams{
		Nodes: 512 << 10, Streams: 1, HotFrac: 1, HotProb: 1, RunLen: 1 << 30, Gap: 4,
	}, 1, 0)
	res := run(t, ch, nil, 50000, 300000)
	// ~1 load per 5 instructions, each ~170 cycles serialized:
	// IPC must be well below 0.5.
	if ipc := res.IPC(); ipc > 0.5 {
		t.Errorf("DRAM-bound chase IPC = %.2f, want < 0.5", ipc)
	}
	if res.DRAM.Total() == 0 {
		t.Error("no DRAM traffic on an out-of-LLC chase")
	}
}

func TestTriageSpeedsUpChase(t *testing.T) {
	// The shape that makes temporal prefetching pay off (paper §1): the
	// hot data footprint (8MB) far exceeds the LLC, while its metadata
	// (128K entries = 512KB) fits Triage's 1MB store.
	mk := func() trace.Reader {
		return workload.NewChase(workload.ChaseParams{
			Nodes: 256 << 10, Streams: 2, HotFrac: 0.5, HotProb: 0.9,
			RunLen: 256, Gap: 6,
		}, 1, 0)
	}
	base := run(t, mk(), nil, 4000000, 1000000)
	tri := run(t, mk(), core.New(core.Config{
		Mode: core.Static, StaticBytes: 1 << 20,
		LLCLatencyTicks: 80,
	}), 4000000, 1000000)
	sp := tri.IPC() / base.IPC()
	t.Logf("chase: base IPC %.3f, triage IPC %.3f, speedup %.3f, cov %.2f, acc %.2f",
		base.IPC(), tri.IPC(), sp, tri.CoverageOver(base), tri.Accuracy())
	if sp < 1.05 {
		t.Errorf("Triage speedup on a repeat chase = %.3f, want > 1.05", sp)
	}
	if acc := tri.Accuracy(); acc < 0.5 {
		t.Errorf("Triage accuracy = %.2f, want > 0.5", acc)
	}
}

func TestBOSpeedsUpStride(t *testing.T) {
	// Multiple interleaved streams under one PC: the baseline per-PC L1
	// stride prefetcher fails, BO's address-space offset succeeds.
	mk := func() trace.Reader {
		return workload.NewStride(workload.StrideParams{
			Streams: 4, StrideLines: 1, WorkingSetLines: 0, Gap: 5, SharedPC: true,
		}, 1, 0)
	}
	base := run(t, mk(), nil, 100000, 300000)
	withBO := run(t, mk(), bo.New(), 100000, 300000)
	sp := withBO.IPC() / base.IPC()
	t.Logf("stride: base IPC %.3f, BO IPC %.3f, speedup %.3f", base.IPC(), withBO.IPC(), sp)
	if sp < 1.02 {
		t.Errorf("BO speedup on sequential stream = %.3f, want > 1.02", sp)
	}
}

func TestBODoesNotHelpChase(t *testing.T) {
	mk := func() trace.Reader {
		return workload.NewChase(workload.ChaseParams{
			Nodes: 256 << 10, Streams: 2, HotFrac: 0.2, HotProb: 0.8,
			RunLen: 256, Gap: 6,
		}, 1, 0)
	}
	base := run(t, mk(), nil, 100000, 300000)
	withBO := run(t, mk(), bo.New(), 100000, 300000)
	sp := withBO.IPC() / base.IPC()
	t.Logf("chase+BO: speedup %.3f", sp)
	if sp > 1.10 {
		t.Errorf("BO speedup on pointer chase = %.3f; generator is too regular", sp)
	}
}

func TestTriagePartitionShrinksLLC(t *testing.T) {
	ch := workload.NewChase(workload.ChaseParams{
		Nodes: 128 << 10, Streams: 1, HotFrac: 0.5, HotProb: 0.9, RunLen: 128, Gap: 5,
	}, 1, 0)
	tri := core.New(core.Config{Mode: core.Static, StaticBytes: 1 << 20})
	m, err := New(Options{
		Machine:             config.Default(1),
		Workloads:           []trace.Reader{ch},
		Prefetchers:         []prefetch.Prefetcher{tri},
		WarmupInstructions:  10000,
		MeasureInstructions: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	// 1MB of a 2MB 16-way LLC = 8 ways.
	if got := m.hier.llc.DataWays(); got != 8 {
		t.Errorf("LLC data ways = %d, want 8 with a 1MB static store", got)
	}
	if got := m.hier.metaWays; got != 8 {
		t.Errorf("metadata ways = %d, want 8", got)
	}
}

func TestNoCapacityLossKeepsAllWays(t *testing.T) {
	ch := workload.NewChase(workload.ChaseParams{
		Nodes: 64 << 10, Streams: 1, HotFrac: 0.5, HotProb: 0.9, RunLen: 128, Gap: 5,
	}, 1, 0)
	tri := core.New(core.Config{Mode: core.Static, StaticBytes: 1 << 20})
	m, err := New(Options{
		Machine:             config.Default(1),
		Workloads:           []trace.Reader{ch},
		Prefetchers:         []prefetch.Prefetcher{tri},
		MeasureInstructions: 10000,
		NoCapacityLoss:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if got := m.hier.llc.DataWays(); got != 16 {
		t.Errorf("LLC data ways = %d, want 16 with NoCapacityLoss", got)
	}
}

func TestMultiCoreSharedLLCContention(t *testing.T) {
	mkOpts := func(cores int) Options {
		ws := make([]trace.Reader, cores)
		for c := range ws {
			ws[c] = workload.NewChase(workload.ChaseParams{
				Nodes: 256 << 10, Streams: 2, HotFrac: 0.3, HotProb: 0.8, RunLen: 128, Gap: 5,
			}, uint64(c+1), mem.Addr(c)<<40)
		}
		return Options{
			Machine:             config.Default(cores),
			Workloads:           ws,
			WarmupInstructions:  50000,
			MeasureInstructions: 150000,
		}
	}
	m1, err := New(mkOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	r1 := m1.Run()
	m4, err := New(mkOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	r4 := m4.Run()
	if len(r4.Cores) != 4 {
		t.Fatalf("got %d core results", len(r4.Cores))
	}
	// Note: 4 cores share bandwidth but each gets 2MB more LLC? No —
	// LLC scales with cores (2MB/core), so per-core IPC should be in
	// the same ballpark, strictly positive.
	for c, cr := range r4.Cores {
		if cr.IPC() <= 0 {
			t.Errorf("core %d IPC = %.3f", c, cr.IPC())
		}
		if cr.Instructions != 150000 {
			t.Errorf("core %d measured %d instructions, want 150000", c, cr.Instructions)
		}
	}
	t.Logf("1-core IPC %.3f; 4-core mean IPC %.3f", r1.IPC(), r4.IPC())
}

func TestBandwidthContentionSlowsCores(t *testing.T) {
	// Streaming workloads saturate the 32GB/s pipe: 16 cores must see
	// much lower per-core IPC than 1 core.
	mk := func(cores int) Result {
		ws := make([]trace.Reader, cores)
		for c := range ws {
			ws[c] = workload.NewStride(workload.StrideParams{
				Streams: 4, StrideLines: 1, WorkingSetLines: 0, Gap: 2,
			}, uint64(c+1), mem.Addr(c)<<40)
		}
		m, err := New(Options{
			Machine:             config.Default(cores),
			Workloads:           ws,
			WarmupInstructions:  20000,
			MeasureInstructions: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}
	r1 := mk(1)
	r16 := mk(16)
	t.Logf("stream IPC: 1-core %.3f, 16-core %.3f", r1.IPC(), r16.IPC())
	if r16.IPC() > 0.7*r1.IPC() {
		t.Errorf("16-core streaming IPC %.3f vs 1-core %.3f: bandwidth contention not modeled",
			r16.IPC(), r1.IPC())
	}
}

func TestSpeedupAndTrafficHelpers(t *testing.T) {
	base := Result{Cores: []CoreResult{{Instructions: 100, Cycles: 200}}}
	fast := Result{Cores: []CoreResult{{Instructions: 100, Cycles: 100}}}
	if sp := fast.SpeedupOver(base); sp != 2.0 {
		t.Errorf("SpeedupOver = %.2f, want 2.0", sp)
	}
	b := Result{}
	b.DRAM.Transfers[0] = 100
	r := Result{}
	r.DRAM.Transfers[0] = 160
	if pct := r.TrafficOverheadPct(b); pct != 60 {
		t.Errorf("TrafficOverheadPct = %.1f, want 60", pct)
	}
}

func TestExhaustedTraceStopsCleanly(t *testing.T) {
	recs := make([]trace.Record, 500)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, Op: trace.NonMem}
	}
	m, err := New(Options{
		Machine:             config.Default(1),
		Workloads:           []trace.Reader{trace.NewSliceReader(recs)},
		MeasureInstructions: 10000, // more than the trace has
	})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Cores[0].Instructions != 500 {
		t.Errorf("measured %d instructions, want 500 (trace length)", res.Cores[0].Instructions)
	}
}

// TestManyPCTraceDeterministic: a replayed trace with more load PCs
// than the L1 stride prefetcher's 256-entry table must give one Result,
// run after run. The store of finished jobs keys results by their
// inputs, so equal inputs have to give equal bytes.
func TestManyPCTraceDeterministic(t *testing.T) {
	const pcs = 300
	rng := rand.New(rand.NewSource(1))
	next := make([]mem.Addr, pcs)
	for i := range next {
		next[i] = mem.Addr(i) << 26
	}
	var recs []trace.Record
	for len(recs) < 40_000 {
		p := rng.Intn(pcs)
		if rng.Intn(4) != 0 {
			p = rng.Intn(64) // hot PCs that a good victim keeps
		}
		recs = append(recs, trace.Record{PC: 0x400000 + uint64(p)*8, Addr: next[p], Op: trace.Load})
		next[p] += mem.Addr(mem.LineSize * (1 + p%3))
		for g := 0; g < 3; g++ {
			recs = append(recs, trace.Record{PC: 0x300000, Op: trace.NonMem})
		}
	}
	var first Result
	for i := 0; i < 6; i++ {
		res := run(t, trace.NewLoopReader(recs), nil, 20_000, 100_000)
		if i == 0 {
			first = res
			if res.L2[0].PrefetchFills == 0 {
				t.Fatal("the L1 stride prefetcher filled nothing")
			}
			continue
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d differs from run 0: L2 prefetch fills %d vs %d",
				i, res.L2[0].PrefetchFills, first.L2[0].PrefetchFills)
		}
	}
}
