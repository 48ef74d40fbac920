package replacement

// Predictor is Hawkeye's PC-indexed hit/miss predictor: a table of
// 3-bit saturating counters indexed by a hash of the load PC. A PC whose
// past loads OPT would have cached trains toward "cache-friendly".
type Predictor struct {
	counters []uint8
	mask     uint64
}

const (
	predictorMax = 7 // 3-bit counters
	predictorMid = 4 // >= mid predicts cache-friendly
)

// NewPredictor returns a predictor with 2^bits counters (Hawkeye uses
// 8K entries, bits=13).
func NewPredictor(bits uint) *Predictor {
	if bits == 0 || bits > 24 {
		panic("replacement: Predictor bits must be in [1,24]")
	}
	n := 1 << bits
	c := make([]uint8, n)
	for i := range c {
		c[i] = predictorMid // start neutral-friendly
	}
	return &Predictor{counters: c, mask: uint64(n - 1)}
}

// Index returns the index of pc's counter. A structure that later
// detrains the PC (TrainNegativeAt) can hold this in place of the PC.
func (p *Predictor) Index(pc uint64) uint32 {
	// CRC-ish mix so nearby PCs spread across the table.
	h := pc
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return uint32(h & p.mask)
}

// TrainPositive moves the PC toward cache-friendly.
func (p *Predictor) TrainPositive(pc uint64) {
	i := p.Index(pc)
	if p.counters[i] < predictorMax {
		p.counters[i]++
	}
}

// TrainNegative moves the PC toward cache-averse.
func (p *Predictor) TrainNegative(pc uint64) { p.TrainNegativeAt(p.Index(pc)) }

// TrainNegativeAt moves the counter at index i (from Index) toward
// cache-averse.
func (p *Predictor) TrainNegativeAt(i uint32) {
	if p.counters[i] > 0 {
		p.counters[i]--
	}
}

// Friendly reports whether loads from pc are predicted cache-friendly.
func (p *Predictor) Friendly(pc uint64) bool {
	return p.counters[p.Index(pc)] >= predictorMid
}

// Counter exposes the raw counter value for tests and debugging.
func (p *Predictor) Counter(pc uint64) uint8 { return p.counters[p.Index(pc)] }
