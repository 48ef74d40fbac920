package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func miss(pc uint64, line mem.Line) prefetch.Event {
	return prefetch.Event{PC: pc, Line: line, Miss: true}
}

func feed(t *Triage, pc uint64, seq []mem.Line) []prefetch.Request {
	var last []prefetch.Request
	for _, l := range seq {
		last = t.Train(miss(pc, l))
	}
	return last
}

func newStatic1MB() *Triage {
	return New(Config{Mode: Static, StaticBytes: 1 << 20, LLCLatencyTicks: 80})
}

func TestLearnsCorrelatedPair(t *testing.T) {
	tr := newStatic1MB()
	feed(tr, 1, []mem.Line{100, 9999})
	reqs := tr.Train(miss(1, 100))
	if len(reqs) != 1 || reqs[0].Line != 9999 {
		t.Fatalf("got %v, want prefetch of 9999", reqs)
	}
	if reqs[0].IssueDelay != 80 {
		t.Errorf("IssueDelay = %d, want one LLC latency (80)", reqs[0].IssueDelay)
	}
}

func TestPCLocalization(t *testing.T) {
	tr := newStatic1MB()
	// Interleaved streams: correlations must be per-PC.
	for i := 0; i < 4; i++ {
		tr.Train(miss(0xA, mem.Line(100+i)))
		tr.Train(miss(0xB, mem.Line(5000+i)))
	}
	reqs := tr.Train(miss(0xA, 100))
	if len(reqs) != 1 || reqs[0].Line != 101 {
		t.Errorf("PC A successor of 100 = %v, want 101", reqs)
	}
	reqs = tr.Train(miss(0xB, 5000))
	if len(reqs) != 1 || reqs[0].Line != 5001 {
		t.Errorf("PC B successor of 5000 = %v, want 5001", reqs)
	}
}

func TestConfidenceGuardsAgainstNoise(t *testing.T) {
	tr := newStatic1MB()
	feed(tr, 1, []mem.Line{10, 20}) // learn 10 -> 20
	// One noisy observation (10 -> 77) must NOT flip the entry...
	feed(tr, 1, []mem.Line{10, 77})
	reqs := tr.Train(miss(1, 10))
	if len(reqs) != 1 || reqs[0].Line != 20 {
		t.Fatalf("after one disagreement: %v, want still 20", reqs)
	}
	// ...but the trigger access above re-armed the pair (10 -> 20), so
	// drive two consecutive disagreements now.
	feed(tr, 1, []mem.Line{10, 77, 10, 77})
	reqs = tr.Train(miss(1, 10))
	if len(reqs) != 1 || reqs[0].Line != 77 {
		t.Errorf("after two disagreements: %v, want 77", reqs)
	}
}

func TestDegreeChainsLookups(t *testing.T) {
	tr := newStatic1MB()
	tr.SetDegree(3)
	feed(tr, 1, []mem.Line{1, 2, 3, 4, 5})
	reqs := tr.Train(miss(1, 1))
	if len(reqs) != 3 {
		t.Fatalf("degree 3: got %d requests (%v)", len(reqs), reqs)
	}
	for k, want := range []mem.Line{2, 3, 4} {
		if reqs[k].Line != want {
			t.Errorf("request %d = %d, want %d", k, reqs[k].Line, want)
		}
		wantDelay := uint64(80 * (k + 1))
		if reqs[k].IssueDelay != wantDelay {
			t.Errorf("request %d delay = %d, want %d (chained LLC lookups)", k, reqs[k].IssueDelay, wantDelay)
		}
	}
}

func TestIgnoresNonMissEvents(t *testing.T) {
	tr := newStatic1MB()
	if reqs := tr.Train(prefetch.Event{PC: 1, Line: 5}); reqs != nil {
		t.Error("plain L2 hit trained the prefetcher")
	}
}

func TestTrainsOnPrefetchHits(t *testing.T) {
	tr := newStatic1MB()
	tr.Train(prefetch.Event{PC: 1, Line: 10, PrefetchHit: true})
	tr.Train(prefetch.Event{PC: 1, Line: 20, PrefetchHit: true})
	reqs := tr.Train(miss(1, 10))
	if len(reqs) != 1 || reqs[0].Line != 20 {
		t.Errorf("prefetch hits did not train: %v", reqs)
	}
}

func TestCapacityEvictionAtSmallStore(t *testing.T) {
	// Smallest legal store: 8KB = 1 entry per set. Distinct triggers
	// mapping to the same set must displace each other.
	tr := New(Config{Mode: Static, StaticBytes: metadataSets * bytesPerEntry})
	feed(tr, 1, []mem.Line{0, 100})    // entry for trigger 0 (set 0)
	feed(tr, 1, []mem.Line{2048, 300}) // trigger 2048 also maps to set 0
	if reqs := tr.Train(miss(1, 2048)); len(reqs) != 1 || reqs[0].Line != 300 {
		t.Fatalf("new entry missing: %v", reqs)
	}
	if reqs := tr.Train(miss(1, 0)); len(reqs) != 0 {
		t.Errorf("evicted entry still present: %v", reqs)
	}
	if tr.store.occupancy() > metadataSets {
		t.Errorf("occupancy %d exceeds capacity %d", tr.store.occupancy(), metadataSets)
	}
}

func TestMetadataAccessCounting(t *testing.T) {
	tr := newStatic1MB()
	feed(tr, 1, []mem.Line{1, 2, 3})
	if tr.MetadataAccesses() == 0 {
		t.Error("no metadata accesses counted")
	}
}

func TestUnlimitedModeClaimsNoLLC(t *testing.T) {
	tr := New(Config{Mode: Unlimited})
	feed(tr, 1, []mem.Line{7, 8, 9})
	if tr.DesiredMetadataBytes() != 0 {
		t.Errorf("Unlimited mode wants %d LLC bytes, want 0", tr.DesiredMetadataBytes())
	}
	reqs := tr.Train(miss(1, 7))
	if len(reqs) != 1 || reqs[0].Line != 8 {
		t.Errorf("unlimited store lookup failed: %v", reqs)
	}
}

func TestUnlimitedReuseCounts(t *testing.T) {
	tr := New(Config{Mode: Unlimited})
	feed(tr, 1, []mem.Line{1, 2})
	for i := 0; i < 5; i++ {
		tr.Train(miss(1, 1)) // 5 reuses of entry (1 -> 2); also rebinds TU
		tr.Train(miss(1, 2))
	}
	counts := tr.ReuseCounts()
	var max uint64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5 {
		t.Errorf("max reuse count = %d, want >= 5", max)
	}
}

func TestStaticDesiredBytes(t *testing.T) {
	tr := New(Config{Mode: Static, StaticBytes: 512 << 10})
	if got := tr.DesiredMetadataBytes(); got != 512<<10 {
		t.Errorf("DesiredMetadataBytes = %d, want 512KB", got)
	}
	if tr.Name() != "triage-512KB" {
		t.Errorf("Name = %q", tr.Name())
	}
}

func TestDynamicStartsAtZero(t *testing.T) {
	tr := New(Config{Mode: Dynamic})
	if got := tr.DesiredMetadataBytes(); got != 0 {
		t.Errorf("initial desire = %d, want 0", got)
	}
	if tr.Name() != "triage-dynamic" {
		t.Errorf("Name = %q", tr.Name())
	}
}

// TestDynamicGrowsOnReuse drives a workload whose metadata is heavily
// reused: after an epoch the partitioner must provision a store.
func TestDynamicGrowsOnReuse(t *testing.T) {
	tr := New(Config{Mode: Dynamic, EpochAccesses: 2000})
	// Ring of 1000 lines spread across sets, traversed repeatedly by
	// one PC: metadata entries are reused every lap.
	ring := make([]mem.Line, 1000)
	for i := range ring {
		ring[i] = mem.Line(i * 17)
	}
	for lap := 0; lap < 10; lap++ {
		feed(tr, 1, ring)
	}
	if got := tr.DesiredMetadataBytes(); got == 0 {
		t.Error("partitioner did not provision a store despite heavy metadata reuse")
	}
}

// TestDynamicStaysOffForStreaming drives a pure streaming workload with
// no metadata reuse: the partitioner must not claim LLC capacity.
func TestDynamicStaysOffForStreaming(t *testing.T) {
	tr := New(Config{Mode: Dynamic, EpochAccesses: 2000})
	for i := 0; i < 20000; i++ {
		tr.Train(miss(1, mem.Line(i)))
	}
	if got := tr.DesiredMetadataBytes(); got != 0 {
		t.Errorf("streaming workload provisioned %d bytes, want 0", got)
	}
}

func TestPrefetchOutcomeFiltersRedundant(t *testing.T) {
	tr := newStatic1MB()
	feed(tr, 1, []mem.Line{10, 20})
	reqs := tr.Train(miss(1, 10))
	if len(reqs) != 1 {
		t.Fatal("no prefetch generated")
	}
	tr.PrefetchOutcome(reqs[0], false) // redundant
	if tr.redundant != 1 || tr.usefulFeedback != 0 {
		t.Errorf("redundant=%d useful=%d, want 1,0", tr.redundant, tr.usefulFeedback)
	}
	reqs = tr.Train(miss(1, 10))
	tr.PrefetchOutcome(reqs[0], true) // useful
	if tr.usefulFeedback != 1 {
		t.Errorf("usefulFeedback = %d, want 1", tr.usefulFeedback)
	}
	// Unknown request is ignored.
	tr.PrefetchOutcome(prefetch.Request{Line: 424242}, true)
}

func TestTrainingUnitBounded(t *testing.T) {
	tr := New(Config{Mode: Static, TrainingUnitSize: 8})
	for pc := uint64(0); pc < 100; pc++ {
		tr.Train(miss(pc, mem.Line(pc*10)))
	}
	if tr.tu.Len() > 8 {
		t.Errorf("training unit grew to %d entries, bound 8", tr.tu.Len())
	}
}

func TestLRUReplacementOption(t *testing.T) {
	tr := New(Config{Mode: Static, StaticBytes: metadataSets * bytesPerEntry, Replacement: LRU})
	feed(tr, 1, []mem.Line{0, 1})
	feed(tr, 1, []mem.Line{2048, 3})
	feed(tr, 1, []mem.Line{4096, 5})
	// LRU with 1 entry/set: only the newest of {0, 2048, 4096} survives.
	if reqs := tr.Train(miss(1, 4096)); len(reqs) != 1 {
		t.Errorf("LRU store lost the newest entry: %v", reqs)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: Static, StaticBytes: 1000}, // not set-aligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCompressedTagAliasing(t *testing.T) {
	// Two triggers in the same set whose full tags differ: both must be
	// representable because the compressor allocates distinct ids.
	tr := newStatic1MB()
	a := mem.Line(0)
	b := mem.Line(metadataSets * 7) // same set 0, different tag
	feed(tr, 1, []mem.Line{a, 100})
	feed(tr, 1, []mem.Line{b, 200})
	if reqs := tr.Train(miss(1, a)); len(reqs) != 1 || reqs[0].Line != 100 {
		t.Errorf("trigger a: %v, want 100", reqs)
	}
	if reqs := tr.Train(miss(1, b)); len(reqs) != 1 || reqs[0].Line != 200 {
		t.Errorf("trigger b: %v, want 200", reqs)
	}
}

var (
	_ prefetch.Prefetcher      = (*Triage)(nil)
	_ prefetch.DegreeSetter    = (*Triage)(nil)
	_ prefetch.EnvUser         = (*Triage)(nil)
	_ prefetch.OutcomeObserver = (*Triage)(nil)
)
