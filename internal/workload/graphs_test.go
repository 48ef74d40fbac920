package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// specNodes returns every distinct chase footprint the suites build.
func specNodes(t *testing.T) []int {
	t.Helper()
	g := newGraphs(math.MaxInt64)
	for _, s := range All() {
		s.NewFrom(g, 1, 0)
	}
	seen := map[int]bool{}
	var nodes []int
	for k := range g.entries {
		if !seen[k.nodes] {
			seen[k.nodes] = true
			nodes = append(nodes, k.nodes)
		}
	}
	sort.Ints(nodes)
	if len(nodes) == 0 {
		t.Fatal("no suite benchmark builds a chase graph")
	}
	return nodes
}

// TestShuffledMatchesRandShuffle pins shuffled to rand.Shuffle draw for
// draw: the same permutation, the same draw count (a fresh source
// advanced by it continues where Shuffle's left off), and the same next
// 1,000 values from the source it shuffled with.
func TestShuffledMatchesRandShuffle(t *testing.T) {
	var sizes []int
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, specNodes(t)...)
	large := uint64(0x9e3779b97f4a7c15) // a chase seed is a uint64 hash
	seeds := []int64{0, 1, -42, math.MaxInt64, int64(large)}
	for _, n := range sizes {
		for _, seed := range seeds {
			refSrc := rand.NewSource(seed)
			ref := make([]uint32, n)
			for i := range ref {
				ref[i] = uint32(i)
			}
			rand.New(refSrc).Shuffle(n, func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })

			src := rand.NewSource(seed)
			got, draws := shuffled(n, src)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d seed=%d: position %d holds %d, rand.Shuffle put %d there", n, seed, i, got[i], ref[i])
				}
			}
			advanced := rand.NewSource(seed)
			for i := uint64(0); i < draws; i++ {
				advanced.Int63()
			}
			for k := 0; k < 1000; k++ {
				want := refSrc.Int63()
				if v := src.Int63(); v != want {
					t.Fatalf("n=%d seed=%d: draw %d after the shuffle is %d, want %d", n, seed, k, v, want)
				}
				if v := advanced.Int63(); v != want {
					t.Fatalf("n=%d seed=%d: draw %d of a source advanced %d draws is %d, want %d", n, seed, k, draws, v, want)
				}
			}
		}
	}
}

// sameRecords fails unless a and b yield the same first n records.
func sameRecords(t *testing.T, what string, a, b trace.Reader, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("%s: record %d is %+v, a private build yields %+v", what, i, ra, rb)
		}
	}
}

// TestGraphsReadersMatchPrivateBuild checks every suite benchmark that
// walks a chase graph: a reader built on a miss, on a hit, and on a miss
// after its graph was evicted each yield a privately built reader's
// records.
func TestGraphsReadersMatchPrivateBuild(t *testing.T) {
	const seed, base, records = 42, mem.Addr(3) << 40, 200_000
	chases := 0
	for _, s := range All() {
		probe := newGraphs(math.MaxInt64)
		s.NewFrom(probe, seed, base)
		if _, built, _ := probe.Stats(); built == 0 {
			continue // stride-only benchmark
		}
		chases++
		var nodes int
		for k := range probe.entries {
			nodes = k.nodes
		}
		// Room for exactly one graph of this footprint: building the
		// benchmark at another seed evicts the first.
		g := newGraphs(int64(nodes) * 4)
		sameRecords(t, s.Name+" miss", s.NewFrom(g, seed, base), s.New(seed, base), records)
		sameRecords(t, s.Name+" hit", s.NewFrom(g, seed, base), s.New(seed, base), records)
		s.NewFrom(g, seed+1, base)
		sameRecords(t, s.Name+" after eviction", s.NewFrom(g, seed, base), s.New(seed, base), records)
		if hits, built, held := g.Stats(); hits != 1 || built != 3 || held != int64(nodes)*4 {
			t.Errorf("%s: %d hits, %d built, %d bytes held; want 1, 3, %d", s.Name, hits, built, held, nodes*4)
		}
	}
	if chases < 10 {
		t.Fatalf("only %d suite benchmarks build a chase graph", chases)
	}
}

// TestGraphsLRUBudget checks the cache keeps the most recently used
// orders within its budget and never keeps one larger than the budget.
func TestGraphsLRUBudget(t *testing.T) {
	g := newGraphs(3 * 64 * 4) // three 64-node graphs
	for seed := uint64(1); seed <= 3; seed++ {
		g.graph(64, seed)
	}
	g.graph(64, 1)  // hit: seed 2 is now the least recently used
	g.graph(64, 4)  // evicts seed 2
	g.graph(64, 1)  // hit
	g.graph(64, 2)  // miss, evicts seed 3
	g.graph(256, 9) // larger than the budget: built, not kept
	hits, built, held := g.Stats()
	if hits != 2 || built != 6 || held != 3*64*4 {
		t.Fatalf("%d hits, %d built, %d bytes held; want 2, 6, %d", hits, built, held, 3*64*4)
	}
	for _, seed := range []uint64{1, 2, 4} {
		if g.entries[graphKey{64, seed}] == nil {
			t.Errorf("seed %d was evicted", seed)
		}
	}
}

// TestGraphsConcurrentReaders builds readers from one small cache on
// several goroutines at once, so hits, misses and evictions interleave;
// every reader must equal a private build. Run it under -race.
func TestGraphsConcurrentReaders(t *testing.T) {
	p := ChaseParams{Nodes: 4096, Streams: 3, HotFrac: 0.3, HotProb: 0.6, RunLen: 48, SkipProb: 0.05, Gap: 3, StoreEvery: 5, NoiseProb: 0.05}
	const seeds, goroutines, readers, records = 6, 8, 24, 3000
	want := make([][]trace.Record, seeds)
	for s := range want {
		want[s] = trace.Collect(NewChase(p, uint64(s), 0), records)
	}
	g := newGraphs(2 * 4096 * 4) // two of the six graphs
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < readers; i++ {
				s := (w + i*(w+1)) % seeds
				got := trace.Collect(newChase(g, p, uint64(s), 0), records)
				for k := range got {
					if got[k] != want[s][k] {
						errs <- "a reader built concurrently differs from a private build"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if hits, built, held := g.Stats(); hits+built != goroutines*readers || held > 2*4096*4 {
		t.Fatalf("%d hits + %d built for %d readers, %d bytes held", hits, built, goroutines*readers, held)
	}
}

// BenchmarkShuffle compares rand.Shuffle with a swap closure against
// shuffled on the largest suite footprint (mcf).
func BenchmarkShuffle(b *testing.B) {
	const n = 448 << 10
	b.Run("rand.Shuffle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order := make([]uint32, n)
			for k := range order {
				order[k] = uint32(k)
			}
			rand.New(rand.NewSource(int64(i))).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
	})
	b.Run("shuffled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shuffled(n, rand.NewSource(int64(i)))
		}
	})
}
