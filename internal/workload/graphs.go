package workload

import (
	"container/list"
	"math/rand"
	"sync"
)

// GraphCacheBytes bounds a Graphs cache: the bytes of traversal orders
// it keeps. It is sized, as sim.DefaultWarmCacheBytes is, to the LRU
// reuse a figure run has. Replaying perfbench's figures command at seed
// 2, it serves 184 of the 306 chase readers (57% of the nodes): every
// reuse among the single-core graphs (6.25 MiB together) and the mixes
// of up to 8 cores, with no rise in peak RSS. The 16-core mixes' reuse
// needs 20 MiB. EXPERIMENTS.md has the table.
const GraphCacheBytes = 8 << 20

// Graphs caches the shuffled traversal orders of pointer-chase graphs
// by footprint (ChaseParams.Nodes) and seed, so readers built for the
// same graph share one read-only order instead of shuffling their own.
// Each entry also records how many values its shuffle drew from the
// seed's source: a reader built from a cached order gets a fresh source
// advanced past those draws, so every record it yields equals a
// privately built reader's. The cache keeps the most recently used
// orders within GraphCacheBytes. A nil *Graphs builds every order
// privately. Safe for concurrent use.
type Graphs struct {
	budget int64

	mu      sync.Mutex
	entries map[graphKey]*list.Element // of *graph
	lru     list.List                  // most recently used at the front
	held    int64                      // bytes of the orders in entries
	hits    uint64
	built   uint64
}

type graphKey struct {
	nodes int
	seed  uint64
}

// graph is one cached traversal order and the draws its shuffle took.
type graph struct {
	key   graphKey
	order []uint32 // shared by every reader built from it; never written
	draws uint64
}

// NewGraphs returns an empty cache bounded by GraphCacheBytes.
func NewGraphs() *Graphs { return newGraphs(GraphCacheBytes) }

func newGraphs(budget int64) *Graphs {
	return &Graphs{budget: budget, entries: make(map[graphKey]*list.Element)}
}

// Stats reports the cache's activity: readers served a cached order,
// orders shuffled for it, and the bytes of the orders it holds.
func (g *Graphs) Stats() (hits, built uint64, heldBytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hits, g.built, g.held
}

// graph returns the traversal order of the nodes-node graph under seed,
// and the seed's source positioned where that order's shuffle left it.
func (g *Graphs) graph(nodes int, seed uint64) ([]uint32, rand.Source) {
	src := rand.NewSource(int64(seed))
	if g == nil {
		order, _ := shuffled(nodes, src)
		return order, src
	}
	key := graphKey{nodes, seed}
	g.mu.Lock()
	if e := g.entries[key]; e != nil {
		g.lru.MoveToFront(e)
		g.hits++
		gr := e.Value.(*graph)
		g.mu.Unlock()
		for i := uint64(0); i < gr.draws; i++ {
			src.Int63()
		}
		return gr.order, src
	}
	g.built++
	g.mu.Unlock()
	order, draws := shuffled(nodes, src)
	g.put(&graph{key: key, order: order, draws: draws})
	return order, src
}

// put caches gr, evicting the least recently used orders beyond the
// budget. An order larger than the whole budget is not kept, and a
// concurrent miss on the same key keeps the copy stored first.
func (g *Graphs) put(gr *graph) {
	size := graphBytes(gr)
	if size > g.budget {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.entries[gr.key] != nil {
		return
	}
	g.entries[gr.key] = g.lru.PushFront(gr)
	g.held += size
	for g.held > g.budget {
		old := g.lru.Remove(g.lru.Back()).(*graph)
		delete(g.entries, old.key)
		g.held -= graphBytes(old)
	}
}

func graphBytes(gr *graph) int64 { return int64(len(gr.order)) * 4 }

// shuffled returns the identity order of n nodes permuted exactly as
// rand.New(src).Shuffle permutes it with a swap of two elements, and
// the number of values it drew from src. It draws from src itself
// rather than calling a swap closure per element. n must be below
// 2^31, where Shuffle draws through int31n alone.
func shuffled(n int, src rand.Source) ([]uint32, uint64) {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	var draws uint64
	for i := n - 1; i > 0; i-- {
		// Rand.int31n(i+1): a multiply-shift of Rand.Uint32, redrawn
		// while the low half falls below 2^32 mod (i+1).
		bound := uint32(i + 1)
		prod := uint64(uint32(src.Int63()>>31)) * uint64(bound)
		draws++
		if low := uint32(prod); low < bound {
			thresh := -bound % bound
			for low < thresh {
				prod = uint64(uint32(src.Int63()>>31)) * uint64(bound)
				draws++
				low = uint32(prod)
			}
		}
		j := prod >> 32
		order[i], order[j] = order[j], order[i]
	}
	return order, draws
}
