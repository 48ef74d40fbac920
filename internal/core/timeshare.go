package core

import (
	"repro/internal/mem"
	"repro/internal/replacement"
)

// timeShareSizer implements the paper's §3 extension sketch: "our
// scheme can be extended to any number of partitioning configurations
// by time-sharing the OPTgen copies to evaluate different metadata
// store sizes." Two physical OPTgen sandboxes rotate through a ladder
// of candidate sizes: each epoch they model one adjacent pair
// (ladder[i], ladder[i+1]); the decision walks the ladder using the
// same 5% marginal-gain rule, one rung per epoch.
//
// Hardware cost stays the paper's 2x1KB; convergence takes O(len
// ladder) epochs instead of one — exactly the trade the paper implies.
// A second cost of time-sharing: sandbox state is discarded when the
// window moves (rearm), so reuse intervals longer than one epoch are
// invisible to the estimator. Epochs must comfortably exceed the
// workload's metadata reuse distance.
type timeShareSizer struct {
	ladder []int // candidate sizes in bytes, ascending, ladder[0] >= 8KB
	pair   int   // index i: currently modeling ladder[i] vs ladder[i+1]
	opt    *replacement.Sandbox

	epochLen  int
	accesses  int
	threshold float64
	current   int // chosen size in bytes (one of ladder or 0)
}

// newTimeShareSizer returns a sizer over the given ascending ladder of
// candidate store sizes.
func newTimeShareSizer(ladder []int, epochLen int) *timeShareSizer {
	if len(ladder) < 2 {
		panic("triage: time-share ladder needs >= 2 sizes")
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			panic("triage: time-share ladder must be ascending")
		}
	}
	return &timeShareSizer{
		ladder:    ladder,
		opt:       replacement.NewSandbox(sampleEvery, maxTracked, assocOf(ladder[0]), assocOf(ladder[1])),
		epochLen:  epochLen,
		threshold: 0.05,
	}
}

// assocOf is the per-set capacity of a store of the given size, at
// least one entry.
func assocOf(bytes int) int {
	a := bytes / bytesPerEntry / metadataSets
	if a < 1 {
		a = 1
	}
	return a
}

// observe feeds one metadata access; at epoch boundaries it walks the
// ladder one rung and re-arms. It reports whether the choice changed.
func (z *timeShareSizer) observe(l mem.Line) bool {
	z.opt.Access(storeSet(l), l, 0)
	z.accesses++
	if z.accesses < z.epochLen {
		return false
	}
	z.accesses = 0
	return z.step()
}

// step applies the marginal-gain rule to the modeled pair and moves the
// evaluation window along the ladder.
func (z *timeShareSizer) step() bool {
	prev := z.current
	if n := float64(z.opt.Accesses()); n > 0 {
		hrSmall := float64(z.opt.Hits(0)) / n
		hrLarge := float64(z.opt.Hits(1)) / n
		lo, hi := z.ladder[z.pair], z.ladder[z.pair+1]
		switch {
		case hrLarge-hrSmall > z.threshold:
			// The larger of the modeled pair pays: adopt it and move the
			// window up to probe even larger sizes next.
			z.current = hi
			if z.pair < len(z.ladder)-2 {
				z.pair++
			}
		case hrSmall > z.threshold:
			// The smaller size suffices: adopt it and probe downward.
			z.current = lo
			if z.pair > 0 {
				z.pair--
			}
		default:
			// Not even the smaller size earns its keep at this rung:
			// turn the store off and fall to the bottom of the ladder.
			z.current = 0
			z.pair = 0
		}
	}
	// Re-arm at the new pair, discarding the previous pair's occupancy
	// state (the cost of time-sharing).
	z.opt.Rearm(assocOf(z.ladder[z.pair]), assocOf(z.ladder[z.pair+1]))
	return z.current != prev
}

// desiredBytes returns the current choice.
func (z *timeShareSizer) desiredBytes() int { return z.current }
