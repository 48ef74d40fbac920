package replacement

// LRU is the classic least-recently-used policy.
type LRU struct {
	ways  int
	stamp []uint64 // last-use timestamps, indexed set*ways + way
	clock uint64
}

// NewLRU returns an LRU policy for a sets x ways cache.
func NewLRU(sets, ways int) *LRU {
	return &LRU{ways: ways, stamp: make([]uint64, sets*ways)}
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Hit implements Policy.
func (p *LRU) Hit(set, way int, _ Access) { p.touch(set, way) }

// Fill implements Policy.
func (p *LRU) Fill(set, way int, _ Access) { p.touch(set, way) }

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// Victim implements Policy.
func (p *LRU) Victim(set, ways int) int {
	stamp := p.stamp[set*p.ways : set*p.ways+ways]
	victim, oldest := 0, ^uint64(0)
	for w := range stamp {
		if s := stamp[w]; s < oldest {
			oldest, victim = s, w
		}
	}
	return victim
}
