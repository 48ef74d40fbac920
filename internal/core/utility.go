package core

import (
	"repro/internal/mem"
	"repro/internal/replacement"
)

// dataUtility implements the paper's named future-work extension
// ("more sophisticated partitioning schemes that account for cache
// utility more accurately", §4.2 discussion of bzip2): alongside the
// metadata sandboxes, it runs OPTgen sandboxes over the *data* stream
// (the L2 misses that access the LLC) at three data capacities — the
// full LLC, the LLC minus the small store, and the LLC minus the large
// store — so the partitioner can weigh metadata hit-rate gains against
// the data hit-rate the partition destroys.
//
// Both streams are the same events (every Triage training event is an
// L2 miss that both probes the metadata store and accesses the LLC),
// so the two hit rates are directly comparable: one metadata hit is one
// covered miss, one lost data hit is one new miss.
type dataUtility struct {
	// opt models the full LLC, the LLC minus the small store and the
	// LLC minus the large store, in that order.
	opt *replacement.Sandbox
}

// llcUtilSets mirrors the LLC's per-core set view (2MB/16-way/64B).
const llcUtilSets = 2048

// newDataUtility returns a utility estimator for an LLC with fullWays
// per-core ways, of which the small/large metadata stores would claim
// smallWays/largeWays (at most fullWays-1 each).
func newDataUtility(fullWays, smallWays, largeWays int) *dataUtility {
	if fullWays-largeWays < 1 {
		largeWays = fullWays - 1
	}
	if fullWays-smallWays < 1 {
		smallWays = fullWays - 1
	}
	return &dataUtility{opt: replacement.NewSandbox(sampleEvery, maxTracked,
		fullWays, fullWays-smallWays, fullWays-largeWays)}
}

// observe feeds one LLC access (an L2-miss line).
func (u *dataUtility) observe(l mem.Line) {
	u.opt.Access(int(uint64(l)&(llcUtilSets-1)), l, 0)
}

// reducedHits returns OPT's data hits with the small or large
// partition carved out of the LLC.
func (u *dataUtility) reducedHits(large bool) uint64 {
	if large {
		return u.opt.Hits(2)
	}
	return u.opt.Hits(1)
}

// lossAt returns the estimated data hit-rate loss of carving the
// small or large partition out of the LLC.
func (u *dataUtility) lossAt(large bool) float64 {
	if u.opt.Accesses() == 0 {
		return 0
	}
	loss := float64(u.opt.Hits(0)) - float64(u.reducedHits(large))
	if loss < 0 {
		loss = 0
	}
	return loss / float64(u.opt.Accesses())
}

// missRateAt returns the estimated data miss rate of the LLC with the
// small or large partition carved out — the fraction of accesses whose
// prefetch would actually be useful rather than redundant.
func (u *dataUtility) missRateAt(large bool) float64 {
	if u.opt.Accesses() == 0 {
		return 1
	}
	return 1 - float64(u.reducedHits(large))/float64(u.opt.Accesses())
}

// recomputeUtility picks the partition maximizing net benefit. A
// metadata hit only helps when the demanded line would have missed the
// (reduced) LLC — prefetches for LLC-resident lines are redundant — so
// the usable benefit at a size is capped by the data miss rate at that
// size. The cost is the data hit rate the partition destroys. Both are
// rates over the same event stream, so they subtract directly.
func (z *sizer) recomputeUtility(u *dataUtility) {
	hrSmall, hrLarge, ok := z.hitRates()
	if !ok {
		z.current = 0
		return
	}
	benefitSmall := hrSmall
	if mr := u.missRateAt(false); mr < benefitSmall {
		benefitSmall = mr
	}
	benefitLarge := hrLarge
	if mr := u.missRateAt(true); mr < benefitLarge {
		benefitLarge = mr
	}
	netSmall := benefitSmall - u.lossAt(false)
	netLarge := benefitLarge - u.lossAt(true)
	best, bestNet := 0, 0.0
	if netSmall > bestNet+z.threshold {
		best, bestNet = smallBytes, netSmall
	}
	if netLarge > bestNet+z.threshold {
		best = largeBytes
	}
	z.current = best
}
