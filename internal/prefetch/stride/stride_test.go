package stride

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func ev(pc uint64, line mem.Line) prefetch.Event {
	return prefetch.Event{PC: pc, Line: line, Miss: true}
}

func TestLearnsConstantStride(t *testing.T) {
	p := New(WithDegree(1))
	var got []prefetch.Request
	for i := 0; i < 6; i++ {
		got = p.Train(ev(0x100, mem.Line(i*3)))
	}
	if len(got) != 1 {
		t.Fatalf("after 6 strided accesses, got %d requests, want 1", len(got))
	}
	if got[0].Line != mem.Line(5*3+3) {
		t.Errorf("prefetch line = %d, want %d", got[0].Line, 5*3+3)
	}
}

func TestDegreeScaling(t *testing.T) {
	p := New(WithDegree(4))
	var got []prefetch.Request
	for i := 0; i < 8; i++ {
		got = p.Train(ev(0x100, mem.Line(i*2)))
	}
	if len(got) != 4 {
		t.Fatalf("degree 4: got %d requests", len(got))
	}
	for k, r := range got {
		want := mem.Line(7*2 + 2*(k+1))
		if r.Line != want {
			t.Errorf("request %d: line %d, want %d", k, r.Line, want)
		}
	}
}

func TestNoPrefetchOnIrregular(t *testing.T) {
	p := New()
	addrs := []mem.Line{10, 500, 3, 999, 42, 7777, 12, 6}
	for _, a := range addrs {
		if got := p.Train(ev(0x200, a)); len(got) != 0 {
			t.Fatalf("irregular stream produced prefetches: %v", got)
		}
	}
}

func TestPerPCIsolation(t *testing.T) {
	p := New(WithDegree(1))
	// Interleave two streams with different strides on different PCs.
	// Train returns a scratch slice valid only until the next call, so
	// snapshot each stream's requests before training the other.
	var gotA, gotB []prefetch.Request
	for i := 0; i < 8; i++ {
		gotA = append(gotA[:0], p.Train(ev(0xA, mem.Line(i)))...)
		gotB = append(gotB[:0], p.Train(ev(0xB, mem.Line(1000+i*5)))...)
	}
	if len(gotA) != 1 || gotA[0].Line != 8 {
		t.Errorf("stream A prefetch = %v, want line 8", gotA)
	}
	if len(gotB) != 1 || gotB[0].Line != 1000+7*5+5 {
		t.Errorf("stream B prefetch = %v, want line %d", gotB, 1000+7*5+5)
	}
}

func TestZeroStrideSuppressed(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		if got := p.Train(ev(0x1, mem.Line(42))); len(got) != 0 {
			t.Fatal("repeated same-line accesses must not prefetch")
		}
	}
}

func TestTableBound(t *testing.T) {
	p := New(WithTableSize(4))
	for pc := uint64(0); pc < 100; pc++ {
		p.Train(ev(pc, mem.Line(pc)))
	}
	if p.table.Len() > 4 {
		t.Errorf("table grew to %d entries, bound is 4", p.table.Len())
	}
}

func TestSetDegree(t *testing.T) {
	p := New()
	p.SetDegree(3)
	var got []prefetch.Request
	for i := 0; i < 8; i++ {
		got = p.Train(ev(0x1, mem.Line(i)))
	}
	if len(got) != 3 {
		t.Errorf("SetDegree(3): got %d requests", len(got))
	}
}

var _ prefetch.Prefetcher = (*Prefetcher)(nil)
var _ prefetch.DegreeSetter = (*Prefetcher)(nil)

// TestFullTableDeterministic: once more PCs train than the table holds,
// each new PC evicts one entry. The victim must be a function of the
// event stream, so the same 300-PC stream gives the same requests.
func TestFullTableDeterministic(t *testing.T) {
	run := func() []prefetch.Request {
		const pcs = 300
		rng := rand.New(rand.NewSource(1))
		next := make([]mem.Line, pcs)
		for i := range next {
			next[i] = mem.Line(i) << 20
		}
		p := New()
		var out []prefetch.Request
		for i := 0; i < 20_000; i++ {
			pc := rng.Intn(pcs)
			if rng.Intn(4) != 0 {
				pc = rng.Intn(64) // hot PCs that a good victim keeps
			}
			out = append(out, p.Train(ev(uint64(pc), next[pc]))...)
			next[pc] += mem.Line(1 + pc%3)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no prefetches: the stream never trained a stride")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the same stream gave %d then %d requests", len(a), len(b))
	}
}
