package ghb

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

func ev(pc uint64, line mem.Line) prefetch.Event {
	return prefetch.Event{PC: pc, Line: line, Miss: true}
}

func feed(p *Prefetcher, pc uint64, seq []mem.Line) []prefetch.Request {
	var last []prefetch.Request
	for _, l := range seq {
		last = p.Train(ev(pc, l))
	}
	return last
}

func TestLearnsConstantStride(t *testing.T) {
	p := New(256)
	// Stride 3: delta pairs repeat immediately.
	var reqs []prefetch.Request
	for i := 0; i < 10; i++ {
		reqs = p.Train(ev(1, mem.Line(i*3)))
	}
	if len(reqs) != 1 || reqs[0].Line != mem.Line(9*3+3) {
		t.Fatalf("got %v, want next stride element %d", reqs, 9*3+3)
	}
}

func TestLearnsRepeatingDeltaPattern(t *testing.T) {
	p := New(256)
	// Pattern of deltas +1, +3 repeating: 0 1 4 5 8 9 12 ...
	seq := []mem.Line{0, 1, 4, 5, 8, 9, 12}
	reqs := feed(p, 1, seq)
	// Last pair of deltas is (+3, +1)... after 12 the pattern gives 13.
	if len(reqs) == 0 || reqs[0].Line != 13 {
		t.Fatalf("got %v, want [13]", reqs)
	}
}

func TestPCLocalizedDeltas(t *testing.T) {
	p := New(256)
	// Two interleaved strided streams on different PCs: each must learn
	// its own stride despite global interleaving.
	var ra, rb []prefetch.Request
	for i := 0; i < 10; i++ {
		ra = p.Train(ev(0xA, mem.Line(i*2)))
		rb = p.Train(ev(0xB, mem.Line(1000+i*5)))
	}
	if len(ra) != 1 || ra[0].Line != mem.Line(9*2+2) {
		t.Errorf("stream A: got %v, want %d", ra, 9*2+2)
	}
	if len(rb) != 1 || rb[0].Line != mem.Line(1000+9*5+5) {
		t.Errorf("stream B: got %v, want %d", rb, 1000+9*5+5)
	}
}

func TestCannotLearnLargePointerChase(t *testing.T) {
	// Delta correlation CAN follow an exactly repeating sequence (the
	// deltas repeat too), but only while it fits the history buffer.
	// Real pointer chases have working sets of hundreds of thousands of
	// lines vs a 256-512 entry GHB — this is why on-chip GHBs cannot do
	// temporal prefetching at scale (paper §2.1).
	p := New(256)
	state := uint64(9)
	issued := 0
	for round := 0; round < 3; round++ {
		state = 9
		for i := 0; i < 4096; i++ { // loop 16x the history size
			state = state*6364136223846793005 + 1442695040888963407
			issued += len(p.Train(ev(1, mem.Line(state>>40))))
		}
	}
	// The sequence ages out of the buffer long before it repeats, so
	// only chance delta-pair collisions fire.
	if frac := float64(issued) / (3 * 4096); frac > 0.10 {
		t.Errorf("GHB G/DC covered %.1f%% of an out-of-buffer chase, want < 10%%", frac*100)
	}
}

func TestFollowsExactlyRepeatingLoopWithinBuffer(t *testing.T) {
	// Within the history size, an exactly repeating irregular loop IS
	// predictable via deltas (the flip side of the test above).
	p := New(512)
	state := uint64(9)
	issued := 0
	for round := 0; round < 4; round++ {
		state = 9
		for i := 0; i < 100; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			issued += len(p.Train(ev(1, mem.Line(state>>40))))
		}
	}
	if issued == 0 {
		t.Error("GHB failed to follow a small exactly-repeating loop")
	}
}

func TestDegree(t *testing.T) {
	p := New(256)
	p.SetDegree(3)
	var reqs []prefetch.Request
	for i := 0; i < 12; i++ {
		reqs = p.Train(ev(1, mem.Line(i*4)))
	}
	if len(reqs) != 3 {
		t.Fatalf("degree 3: got %d requests (%v)", len(reqs), reqs)
	}
	for k, want := range []mem.Line{11*4 + 4, 11*4 + 8, 11*4 + 12} {
		if reqs[k].Line != want {
			t.Errorf("request %d = %d, want %d", k, reqs[k].Line, want)
		}
	}
}

func TestBufferWrapInvalidatesLinks(t *testing.T) {
	p := New(8) // tiny history
	// Fill with PC 1, then overwrite everything with PC 2; PC 1's chain
	// must not follow stale links into PC 2's entries.
	for i := 0; i < 8; i++ {
		p.Train(ev(1, mem.Line(i*2)))
	}
	for i := 0; i < 16; i++ {
		p.Train(ev(2, mem.Line(1000+i*7)))
	}
	got := p.chain(1, 8)
	for _, l := range got {
		if l >= 1000 {
			t.Fatalf("PC 1's chain contains PC 2's line %d", l)
		}
	}
}

func TestMinimumSize(t *testing.T) {
	p := New(1)
	if len(p.buf) < 8 {
		t.Errorf("buffer size %d, want clamped to >= 8", len(p.buf))
	}
}

var (
	_ prefetch.Prefetcher   = (*Prefetcher)(nil)
	_ prefetch.DegreeSetter = (*Prefetcher)(nil)
)

// TestPCChurnDeterministic: far more PCs than the history holds must
// not make predictions depend on which index entry gets dropped, so
// the same stream gives the same requests.
func TestPCChurnDeterministic(t *testing.T) {
	run := func() []prefetch.Request {
		rng := rand.New(rand.NewSource(1))
		p := New(64)
		next := make([]mem.Line, 4)
		var out []prefetch.Request
		for i := 0; i < 20_000; i++ {
			if rng.Intn(2) == 0 {
				// A cold PC: pushes the index past 4x the buffer.
				p.Train(ev(uint64(1000+i), mem.Line(rng.Intn(1<<20))))
				continue
			}
			h := rng.Intn(len(next))
			out = append(out, p.Train(ev(uint64(h), next[h]))...)
			next[h] += mem.Line(1 + i%3)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no prefetches: no delta pair ever repeated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the same stream gave %d then %d requests", len(a), len(b))
	}
}

// TestBoundedIndexMatchesUnbounded pins why the PC index may hold one
// entry per buffer slot: the PC it evicts has had its slot overwritten,
// so a prefetcher whose index never evicts predicts the same.
func TestBoundedIndexMatchesUnbounded(t *testing.T) {
	bounded, unbounded := New(16), New(16)
	unbounded.index = flat.NewLRU[int](1 << 16)
	rng := rand.New(rand.NewSource(2))
	next := make([]mem.Line, 40)
	issued := 0
	for i := 0; i < 50_000; i++ {
		pc := rng.Intn(len(next))
		if rng.Intn(3) == 0 {
			pc = rng.Intn(4)
		}
		e := ev(uint64(pc), next[pc])
		next[pc] += mem.Line(1 + pc%5)
		a, b := bounded.Train(e), unbounded.Train(e)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("event %d: bounded index predicted %v, unbounded %v", i, a, b)
		}
		issued += len(a)
	}
	if issued == 0 || bounded.index.Len() != 16 {
		t.Errorf("issued %d, index holds %d: the stream did not exercise eviction", issued, bounded.index.Len())
	}
}
