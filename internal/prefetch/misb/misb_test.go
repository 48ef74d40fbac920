package misb

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func miss(pc uint64, line mem.Line) prefetch.Event {
	return prefetch.Event{PC: pc, Line: line, Miss: true}
}

func feed(p *Prefetcher, pc uint64, seq []mem.Line) {
	for _, l := range seq {
		p.Train(miss(pc, l))
	}
}

func TestLearnsTemporalStream(t *testing.T) {
	p := New()
	seq := []mem.Line{100, 7, 9999, 42}
	feed(p, 1, seq)
	// Replay: each element predicts its successor.
	for i := 0; i < len(seq)-1; i++ {
		reqs := p.Train(miss(1, seq[i]))
		if len(reqs) != 1 || reqs[0].Line != seq[i+1] {
			t.Errorf("trigger %d: got %v, want %d", seq[i], reqs, seq[i+1])
		}
	}
}

func TestPCLocalization(t *testing.T) {
	p := New()
	// Interleave two PC streams; each must keep its own successors —
	// exactly what STMS cannot do.
	for i := 0; i < 4; i++ {
		p.Train(miss(0xA, mem.Line(100+i)))
		p.Train(miss(0xB, mem.Line(200+i)))
	}
	reqs := p.Train(miss(0xA, 100))
	if len(reqs) != 1 || reqs[0].Line != 101 {
		t.Errorf("PC A successor of 100 = %v, want 101", reqs)
	}
	reqs = p.Train(miss(0xB, 200))
	if len(reqs) != 1 || reqs[0].Line != 201 {
		t.Errorf("PC B successor of 200 = %v, want 201", reqs)
	}
}

func TestStructuralSpaceIsConsecutive(t *testing.T) {
	p := New()
	feed(p, 1, []mem.Line{10, 20, 30, 40})
	s10, _ := p.ps.Get(10)
	for i, l := range []mem.Line{20, 30, 40} {
		if s, _ := p.ps.Get(uint64(l)); s != s10+uint64(i+1) {
			t.Errorf("PS[%d] = %d, want %d", l, s, s10+uint64(i+1))
		}
	}
	for i := uint64(0); i < 4; i++ {
		want := []mem.Line{10, 20, 30, 40}[i]
		// SP values pack line<<1 | confidence.
		if packed, _ := p.sp.Get(s10 + i); mem.Line(packed>>1) != want {
			t.Errorf("SP[%d] = %d, want %d", s10+i, packed>>1, want)
		}
	}
}

func TestDegreeWalksStream(t *testing.T) {
	p := New()
	p.SetDegree(3)
	feed(p, 1, []mem.Line{1, 2, 3, 4, 5})
	reqs := p.Train(miss(1, 1))
	if len(reqs) != 3 {
		t.Fatalf("degree 3: got %d requests (%v)", len(reqs), reqs)
	}
	for k, want := range []mem.Line{2, 3, 4} {
		if reqs[k].Line != want {
			t.Errorf("request %d = %d, want %d", k, reqs[k].Line, want)
		}
	}
}

// countingEnv counts metadata transfers and applies a fixed latency.
type countingEnv struct {
	reads, writes int
	latency       uint64
}

func (e *countingEnv) MetadataRead(now uint64) uint64 {
	e.reads++
	return now + e.latency
}
func (e *countingEnv) MetadataWrite(uint64)  { e.writes++ }
func (e *countingEnv) LLCMetadataAccess(int) {}

func TestMetadataTrafficOnCacheMisses(t *testing.T) {
	env := &countingEnv{latency: 100}
	// Tiny metadata cache: every block access misses eventually.
	p := New(WithCacheBytes(64)) // one block
	p.Bind(env)
	for i := 0; i < 100; i++ {
		p.Train(miss(1, mem.Line(i*1000)))
	}
	if env.reads == 0 {
		t.Error("no off-chip metadata reads with a 1-block cache")
	}
	if p.OffChipMetadataAccesses() == 0 {
		t.Error("OffChipMetadataAccesses = 0")
	}
}

func TestMetadataCacheHitsAvoidTraffic(t *testing.T) {
	env := &countingEnv{latency: 100}
	p := New() // default 48KB cache
	p.Bind(env)
	// A short loop fits easily in the metadata cache.
	seq := []mem.Line{1, 2, 3, 4}
	for round := 0; round < 50; round++ {
		feed(p, 1, seq)
	}
	readsAfterWarm := env.reads
	for round := 0; round < 50; round++ {
		feed(p, 1, seq)
	}
	// A cyclic stream keeps some steady-state churn at the wrap link
	// (this is the residual metadata traffic real temporal prefetchers
	// pay), but the warm working set must mostly hit on chip: far fewer
	// than one off-chip read per training event.
	steadyReads := env.reads - readsAfterWarm
	if steadyReads > 50 { // 200 events in the second phase
		t.Errorf("steady-state off-chip reads = %d over 200 events, want < 50", steadyReads)
	}
	if p.CacheHitRate() < 0.5 {
		t.Errorf("metadata cache hit rate %.2f, want > 0.5 on a warm loop", p.CacheHitRate())
	}
}

func TestIssueDelayReflectsMetadataMisses(t *testing.T) {
	env := &countingEnv{latency: 500}
	p := New(WithCacheBytes(64))
	p.Bind(env)
	feed(p, 1, []mem.Line{10, 20})
	// Pollute the 1-block cache so the next lookup misses.
	feed(p, 2, []mem.Line{100000, 200000})
	reqs := p.Train(miss(1, 10))
	if len(reqs) != 1 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if reqs[0].IssueDelay == 0 {
		t.Error("IssueDelay = 0 despite guaranteed metadata cache misses")
	}
}

func TestSuccessorRebinding(t *testing.T) {
	p := New()
	feed(p, 1, []mem.Line{10, 20})
	// One disagreeing observation is forgiven (1-bit SP confidence)...
	feed(p, 1, []mem.Line{10, 99})
	reqs := p.Train(miss(1, 10))
	if len(reqs) != 1 || reqs[0].Line != 20 {
		t.Errorf("after one disagreement, successor = %v, want still 20", reqs)
	}
	// The trigger access above re-armed (10 -> 99)? No: Train(10) set
	// lastAddr=10, so feed two more disagreeing pairs to flip the slot.
	feed(p, 1, []mem.Line{10, 99})
	reqs = p.Train(miss(1, 10))
	if len(reqs) != 1 || reqs[0].Line != 99 {
		t.Errorf("after two disagreements, successor = %v, want 99", reqs)
	}
}

var (
	_ prefetch.Prefetcher   = (*Prefetcher)(nil)
	_ prefetch.DegreeSetter = (*Prefetcher)(nil)
	_ prefetch.EnvUser      = (*Prefetcher)(nil)
)

// TestNewAllocatesLittle pins that a fresh prefetcher holds only its
// 48 KB metadata cache's bookkeeping: PS, SP and the training unit
// start empty and grow with what a run trains, so a machine that has
// trained little (and its warm snapshot) carries little.
func TestNewAllocatesLittle(t *testing.T) {
	const calls = 8
	ps := make([]*Prefetcher, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ps {
		ps[i] = New()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ps)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("New allocated %d bytes per call, want under 64 KiB", per)
	}
}
