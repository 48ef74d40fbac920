package replacement

// Hawkeye implements the Hawkeye replacement policy (Jain & Lin,
// ISCA'16). A subset of sets is sampled; for those sets OPTgen
// reconstructs Belady's decisions over an 8x history and trains a
// PC-indexed predictor. All sets then insert lines with high priority
// (RRPV 0) when the inserting PC is predicted cache-friendly and with
// RRPV 7 otherwise; evicting a cache-friendly line detrains the last PC
// that touched it.
type Hawkeye struct {
	ways int
	pred *Predictor
	opt  *Sandbox // OPTgen at ways over the sampled sets

	rrpv     [][]uint8
	friendly [][]bool
	lastPC   [][]uint64
}

const hawkeyeMaxRRPV = 7

// NewHawkeye returns a Hawkeye policy for a sets x ways cache. Every
// sampleEvery-th set is sampled (64 in the original; must be a power of
// two).
func NewHawkeye(sets, ways, sampleEvery int, predictorBits uint) *Hawkeye {
	h := &Hawkeye{
		ways:     ways,
		pred:     NewPredictor(predictorBits),
		opt:      NewSandbox(sampleEvery, 16*ways, ways),
		rrpv:     make([][]uint8, sets),
		friendly: make([][]bool, sets),
		lastPC:   make([][]uint64, sets),
	}
	for i := range h.rrpv {
		h.rrpv[i] = make([]uint8, ways)
		h.friendly[i] = make([]bool, ways)
		h.lastPC[i] = make([]uint64, ways)
		for w := range h.rrpv[i] {
			h.rrpv[i][w] = hawkeyeMaxRRPV
		}
	}
	return h
}

// Name implements Policy.
func (h *Hawkeye) Name() string { return "hawkeye" }

// Predictor exposes the underlying PC predictor (used by tests and by
// Triage's modified training path).
func (h *Hawkeye) Predictor() *Predictor { return h.pred }

// observe trains the predictor from OPT's decision on an access (a
// no-op outside the sampled sets).
func (h *Hawkeye) observe(set int, a Access) {
	t := h.opt.Access(set, a.Line, a.PC)
	if !t.Seen {
		return
	}
	if t.Hit(0) {
		h.pred.TrainPositive(t.PrevPC)
	} else {
		h.pred.TrainNegative(t.PrevPC)
	}
}

// Hit implements Policy.
func (h *Hawkeye) Hit(set, way int, a Access) {
	h.observe(set, a)
	friendly := h.pred.Friendly(a.PC)
	h.friendly[set][way] = friendly
	h.lastPC[set][way] = a.PC
	if friendly {
		h.rrpv[set][way] = 0
	} else {
		h.rrpv[set][way] = hawkeyeMaxRRPV
	}
}

// Fill implements Policy.
func (h *Hawkeye) Fill(set, way int, a Access) {
	h.observe(set, a)
	friendly := h.pred.Friendly(a.PC)
	h.friendly[set][way] = friendly
	h.lastPC[set][way] = a.PC
	if friendly {
		// Age the other friendly lines so newly inserted friendly lines
		// form an LRU order among themselves (original Hawkeye).
		for w := 0; w < h.ways; w++ {
			if w != way && h.rrpv[set][w] < hawkeyeMaxRRPV-1 {
				h.rrpv[set][w]++
			}
		}
		h.rrpv[set][way] = 0
	} else {
		h.rrpv[set][way] = hawkeyeMaxRRPV
	}
}

// Victim implements Policy.
func (h *Hawkeye) Victim(set, ways int) int {
	row := h.rrpv[set]
	// Prefer a cache-averse line (RRPV == 7). Only ways 0..ways-1 are
	// eligible: a way-partitioned cache passes fewer than the set has.
	for w := 0; w < ways; w++ {
		if row[w] == hawkeyeMaxRRPV {
			return w
		}
	}
	// Otherwise evict the oldest friendly line and detrain its PC.
	victim, maxRRPV := 0, -1
	for w := 0; w < ways; w++ {
		if int(row[w]) > maxRRPV {
			maxRRPV, victim = int(row[w]), w
		}
	}
	if h.friendly[set][victim] {
		h.pred.TrainNegative(h.lastPC[set][victim])
	}
	return victim
}
