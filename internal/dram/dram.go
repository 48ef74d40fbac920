// Package dram models off-chip memory. Two fidelity levels match the
// paper's methodology (§4.1): a simple mode with fixed latency and an
// accurately modeled bandwidth pipe (the single-core, industrial-
// simulator setup), and a detailed mode with per-channel and per-bank
// contention (the multi-core ChampSim setup: 8B channels at 800MHz,
// tCAS=tRP=tRCD=20, 2 channels, 8 banks).
//
// All times are in simulator ticks; the sim package uses 4 ticks per
// core cycle so a 4-wide core can dispatch on quarter-cycle boundaries.
package dram

import (
	"repro/internal/config"
	"repro/internal/mem"
)

// TicksPerCycle is the simulator tick resolution.
const TicksPerCycle = 4

// Kind classifies off-chip transfers for traffic accounting. The paper's
// traffic numbers (Figs. 11, 12) separate demand, prefetch, writeback,
// and — for MISB — metadata traffic.
type Kind int

// Transfer kinds.
const (
	DemandRead Kind = iota
	PrefetchRead
	Writeback
	MetadataRead
	MetadataWrite
	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case DemandRead:
		return "demand-read"
	case PrefetchRead:
		return "prefetch-read"
	case Writeback:
		return "writeback"
	case MetadataRead:
		return "metadata-read"
	case MetadataWrite:
		return "metadata-write"
	default:
		return "unknown"
	}
}

// Stats counts transfers by kind. Each transfer moves one 64B line.
type Stats struct {
	Transfers [numKinds]uint64
}

// Total returns the total number of line transfers.
func (s Stats) Total() uint64 {
	var t uint64
	for _, v := range s.Transfers {
		t += v
	}
	return t
}

// Bytes returns total bytes moved.
func (s Stats) Bytes() uint64 { return s.Total() * mem.LineSize }

// Metadata returns metadata transfers (MISB's off-chip metadata).
func (s Stats) Metadata() uint64 {
	return s.Transfers[MetadataRead] + s.Transfers[MetadataWrite]
}

// DRAM is the off-chip memory model.
type DRAM struct {
	detailed bool

	latencyTicks  uint64
	transferTicks uint64 // per-channel occupancy of one line
	bankTicks     uint64

	channels int
	banks    int
	chanFree []uint64

	// Detailed-mode channels and banks use decaying-window utilization
	// models instead of next-free scalars: multi-core requests arrive
	// out of simulated-time order (each core's memory timestamps run
	// ahead of its dispatch order), and a scalar would let one core's
	// future-stamped access penalize another core's earlier access.
	// Each window accumulates recent busy-time; the queueing wait grows
	// as utilization approaches 1 (M/D/1-style).
	chanUtil []window
	bankUtil []window // indexed channel*banks + bank

	stats Stats
}

// window is one decaying-utilization accumulator.
type window struct {
	busy uint64
	last uint64
}

// wait charges one service of length svc at time now and returns the
// M/D/1-style queueing delay rho/(2(1-rho)) x svc.
func (w *window) wait(now, svc uint64) uint64 {
	if now > w.last {
		elapsed := now - w.last
		if elapsed >= windowTicks {
			w.busy = 0
		} else {
			w.busy -= w.busy * elapsed / windowTicks
		}
		w.last = now
	}
	w.busy += svc
	if w.busy > windowTicks {
		w.busy = windowTicks
	}
	rho := float64(w.busy) / float64(windowTicks)
	if rho > 0.98 {
		rho = 0.98
	}
	return uint64(rho / (2 * (1 - rho)) * float64(svc))
}

// windowTicks is the utilization-averaging window (4K cycles).
const windowTicks = 1 << 14

// New returns a DRAM model for machine m. detailed selects the
// channel/bank contention model; otherwise a single bandwidth pipe with
// fixed latency is used.
func New(m config.Machine, detailed bool) *DRAM {
	d := &DRAM{
		detailed:     detailed,
		latencyTicks: uint64(m.DRAMLatencyCycles()) * TicksPerCycle,
		channels:     1,
		banks:        1,
	}
	if detailed {
		d.channels = m.DRAMChannels
		d.banks = m.DRAMBanksPerChannel
		d.bankTicks = uint64(m.DRAMBankCycles) * TicksPerCycle
	}
	// Split the aggregate bandwidth across channels: each channel's
	// per-line occupancy is channels x the aggregate transfer time.
	d.transferTicks = uint64(m.DRAMTransferCycles()) * TicksPerCycle * uint64(d.channels)
	d.chanFree = make([]uint64, d.channels)
	d.chanUtil = make([]window, d.channels)
	d.bankUtil = make([]window, d.channels*d.banks)
	return d
}

// Stats returns accumulated transfer counts.
func (d *DRAM) Stats() Stats { return d.stats }

// TransferTicks returns one line transfer's per-channel occupancy in
// ticks (telemetry derives bandwidth-busy fractions from it).
func (d *DRAM) TransferTicks() uint64 { return d.transferTicks }

// Channels returns the number of modeled channels.
func (d *DRAM) Channels() int { return d.channels }

// ResetStats zeroes counters (after warmup).
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// channelOf/bankOf map a line to its channel and bank by address bits.
func (d *DRAM) channelOf(l mem.Line) int { return int(uint64(l) % uint64(d.channels)) }
func (d *DRAM) bankOf(l mem.Line) int {
	return int((uint64(l) / uint64(d.channels)) % uint64(d.banks))
}

// Access issues a transfer for line l at tick now and returns the tick
// at which the data is available (reads) or accepted (writes). Queueing
// behind busy channels and banks extends the latency; that queueing is
// what makes prefetch-metadata traffic expensive in bandwidth-
// constrained systems (Fig. 17).
func (d *DRAM) Access(now uint64, l mem.Line, k Kind) uint64 {
	d.stats.Transfers[k]++
	ch := d.channelOf(l)
	var start uint64
	if d.detailed {
		start = now + d.chanUtil[ch].wait(now, d.transferTicks)
		b := d.bankOf(l)
		start += d.bankUtil[ch*d.banks+b].wait(now, d.bankTicks)
	} else {
		// Single-core simple mode: a scalar next-free pipe (arrivals
		// from one core are near-monotone, so no poisoning).
		start = now
		if f := d.chanFree[ch]; f > start {
			start = f
		}
		d.chanFree[ch] = start + d.transferTicks
	}
	switch k {
	case Writeback, MetadataWrite:
		// Writes are posted: they consume bandwidth but nothing waits.
		return start + d.transferTicks
	default:
		return start + d.latencyTicks
	}
}
