package core

import (
	"repro/internal/mem"
	"repro/internal/replacement"
)

// sizer implements Triage's dynamic metadata-store provisioning (§3,
// "Adjusting the Size of the Metadata Store"). Two OPTgen sandboxes
// model the *optimal* metadata hit rate at the two candidate sizes
// (512KB and 1MB); the optimal hit rate scales roughly linearly with
// capacity, so two points suffice. Every epoch (50K metadata accesses)
// the partition is re-evaluated:
//
//   - growing pays off if it raises the optimal hit rate by > 5%
//   - shrinking is safe if it lowers the optimal hit rate by < 5%
//
// The sandboxes observe the *hypothetical* metadata access stream, so
// they keep learning even while the real store is sized to zero.
type sizer struct {
	opt *replacement.Sandbox // OPTgen at the small and large store

	epochLen  int
	accesses  int
	threshold float64 // 5%

	current int // current choice in bytes: 0, smallBytes or largeBytes

	// utility, when non-nil, switches partition decisions to the
	// utility-aware extension (see utility.go): net benefit =
	// metadata hit rate - data hit rate destroyed.
	utility *dataUtility
}

// The metadata sandboxes sample every 64th metadata set and track at
// most 2,048 triggers per sampled set.
const (
	sampleEvery = 64
	maxTracked  = 2048
)

func newSizer(epochLen int) *sizer {
	return &sizer{
		opt: replacement.NewSandbox(sampleEvery, maxTracked,
			smallBytes/bytesPerEntry/metadataSets, largeBytes/bytesPerEntry/metadataSets),
		epochLen:  epochLen,
		threshold: 0.05,
	}
}

// trainHint is the deferred predictor-training decision produced by an
// OPTgen observation: whether OPT at the current size would have hit,
// and which PC to credit/blame. The paper delays applying it until the
// prefetch outcome is known; redundant prefetches drop it.
type trainHint struct {
	valid  bool
	optHit bool
	pc     uint64
}

// hintAt is the training hint of a sandbox access at its i-th capacity.
func hintAt(t replacement.Touch, i int) trainHint {
	return trainHint{valid: t.Seen, optHit: t.Hit(i), pc: t.PrevPC}
}

// apply trains the predictor from the hint.
func (h trainHint) apply(pred *replacement.Predictor) {
	if !h.valid || pred == nil {
		return
	}
	if h.optHit {
		pred.TrainPositive(h.pc)
	} else {
		pred.TrainNegative(h.pc)
	}
}

// observe feeds one metadata access (for trigger line l) into the
// sandboxes and, at epoch boundaries, recomputes the partition choice.
// Every access is counted (the sizing OPTgens see the full metadata
// stream); the returned trainHint carries the *deferred* predictor
// update, which the caller applies immediately for metadata misses and
// only on useful outcomes for prefetch-generating hits.
func (z *sizer) observe(l mem.Line, pc uint64) (trainHint, bool) {
	t := z.opt.Access(storeSet(l), l, pc)
	// Train against OPT at the current provisioning (the small store
	// when the store is off, so the predictor is warm when the
	// partition turns on).
	i := 0
	if z.current == largeBytes {
		i = 1
	}
	z.accesses++
	return hintAt(t, i), z.maybeEndEpoch()
}

func (z *sizer) maybeEndEpoch() bool {
	if z.accesses < z.epochLen {
		return false
	}
	if z.utility != nil {
		z.recomputeUtility(z.utility)
		z.utility.opt.ResetStats()
	} else {
		z.recompute()
	}
	z.accesses = 0
	z.opt.ResetStats()
	return true
}

// recompute applies the paper's asymmetric rules: grow when the larger
// configuration improves the optimal hit rate by more than the
// threshold; shrink only when the smaller configuration loses clearly
// less than the threshold. The deadband between the two prevents
// flapping (every shrink discards live metadata).
func (z *sizer) recompute() {
	hrSmall, hrLarge, ok := z.hitRates()
	if !ok {
		z.current = 0
		return
	}
	deltaLarge := hrLarge - hrSmall
	shrinkBand := z.threshold * 0.6
	switch z.current {
	case largeBytes:
		if deltaLarge < shrinkBand {
			if hrSmall > z.threshold {
				z.current = smallBytes
			} else if hrSmall < shrinkBand {
				z.current = 0
			}
		}
	case smallBytes:
		if deltaLarge > z.threshold {
			z.current = largeBytes
		} else if hrSmall < shrinkBand {
			z.current = 0
		}
	default: // off
		if deltaLarge > z.threshold {
			z.current = largeBytes
		} else if hrSmall > z.threshold {
			z.current = smallBytes
		}
	}
}

// hitRates returns OPT's metadata hit rates at the small and large
// store over the epoch; ok is false when no sampled access arrived.
func (z *sizer) hitRates() (small, large float64, ok bool) {
	n := float64(z.opt.Accesses())
	if n == 0 {
		return 0, 0, false
	}
	return float64(z.opt.Hits(0)) / n, float64(z.opt.Hits(1)) / n, true
}

// desiredBytes returns the current partition choice.
func (z *sizer) desiredBytes() int { return z.current }
