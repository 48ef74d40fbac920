package replacement

// OPTgen reproduces the OPTgen structure from Hawkeye (Jain & Lin,
// ISCA'16): it computes, for a stream of accesses to one cache set,
// whether Belady's optimal policy would have hit each access, using an
// occupancy vector over a sliding window of the last histSize accesses
// (8x the cache capacity in the paper).
//
// The caller supplies the per-line liveness interval: the time of the
// line's previous access (if any). OPTgen checks whether every slot of
// the occupancy vector within the interval is below capacity; if so, OPT
// would have kept the line (a hit), and the interval's occupancy is
// incremented.
//
// Sandbox runs OPTgen copies on a cache's sampled sets; Triage uses
// them to estimate the optimal metadata hit rate at candidate
// metadata-store sizes (paper §3).
type OPTgen struct {
	capacity int
	histSize int
	occ      []uint16
	now      uint64
}

// NewOPTgen returns an OPTgen instance for a set with the given
// capacity (number of ways, or metadata entries for Triage sandboxes).
// The history window is 8x the capacity, per the Hawkeye paper.
func NewOPTgen(capacity int) *OPTgen {
	if capacity < 1 {
		panic("replacement: OPTgen capacity must be >= 1")
	}
	h := 8 * capacity
	return &OPTgen{capacity: capacity, histSize: h, occ: make([]uint16, h)}
}

// Capacity returns the modeled capacity.
func (o *OPTgen) Capacity() int { return o.capacity }

// Now returns the current per-set access time. Callers record this as
// the line's last-access time after calling Access.
func (o *OPTgen) Now() uint64 { return o.now }

// Access records one access. lastTime is the OPTgen time of the line's
// previous access and hasLast reports whether there was one within
// callers' tracking. It returns whether OPT would have hit.
func (o *OPTgen) Access(lastTime uint64, hasLast bool) bool {
	t := o.now
	o.now++
	// Zero the slot being reused by the circular window.
	o.occ[t%uint64(o.histSize)] = 0
	if !hasLast || t-lastTime >= uint64(o.histSize) || lastTime >= t {
		// Cold access or interval fell out of the window: OPT miss by
		// construction (unbounded reuse distance).
		return false
	}
	for i := lastTime; i < t; i++ {
		if int(o.occ[i%uint64(o.histSize)]) >= o.capacity {
			return false
		}
	}
	for i := lastTime; i < t; i++ {
		o.occ[i%uint64(o.histSize)]++
	}
	return true
}
