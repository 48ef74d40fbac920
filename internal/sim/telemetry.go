package sim

import (
	"math"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// This file is the sim side of the telemetry layer: the sampler's
// snapshot-and-delta bookkeeping and the event-trace plumbing into
// prefetchers. All of it is inert unless Options.Telemetry is set.

// corePrev holds one core's counters at the previous sample point, so
// takeSample can report interval rates instead of cumulative ones.
type corePrev struct {
	instr   uint64
	tick    uint64
	l2      cache.Stats
	lookups uint64
	hits    uint64
}

// sampleState is the sampler's bookkeeping: the countdown to the next
// sample, the next sample's interval index, and the counters at the
// previous sample point. A warm snapshot carries it, so a run that
// resumes another run's measurement window samples as a cold run would.
type sampleState struct {
	// countdown is 0 while sampling is off, so the disabled hot-loop
	// cost is one compare.
	countdown uint64
	idx       int
	prevCores []corePrev
	prevLLC   cache.Stats
	prevDRAM  dram.Stats
	prevTick  uint64
}

// sampleEvery is the run's sampling interval, 0 when it samples nothing.
func (m *Machine) sampleEvery() uint64 {
	if m.sampler == nil {
		return 0
	}
	return m.sampler.Every()
}

// traceBinder is implemented by prefetchers that can emit structured
// events (Triage's Hawkeye predictor decisions).
type traceBinder interface {
	BindEventTrace(*telemetry.EventTrace)
}

// bindEventTrace attaches tr to p, unwrapping hybrids.
func bindEventTrace(p prefetch.Prefetcher, tr *telemetry.EventTrace) {
	walkParts(p, func(leaf prefetch.Prefetcher) {
		if tb, ok := leaf.(traceBinder); ok {
			tb.BindEventTrace(tr)
		}
	})
}

// lookupCounter is implemented by prefetchers with a metadata store
// whose lookup hit rate the sampler reports (Triage).
type lookupCounter interface {
	LookupCounts() (lookups, hits uint64)
}

// lookupCountsFor sums the cumulative metadata lookups/hits of core
// c's prefetchers.
func (m *Machine) lookupCountsFor(c int) (lookups, hits uint64) {
	walkParts(m.hier.l2pf[c], func(leaf prefetch.Prefetcher) {
		if lc, ok := leaf.(lookupCounter); ok {
			l, h := lc.LookupCounts()
			lookups += l
			hits += h
		}
	})
	return lookups, hits
}

// now returns the machine's current time: the max retire tick across
// cores (shared-resource timestamps never run ahead of it for long).
func (m *Machine) now() uint64 {
	var max uint64
	for _, cs := range m.cores {
		if cs.lastRetire > max {
			max = cs.lastRetire
		}
	}
	return max
}

// startSampling arms the sampler at the start of the measurement
// window (stats have just been reset) and records the baseline
// snapshot the first interval's deltas are taken against.
func (m *Machine) startSampling() {
	every := m.sampleEvery()
	if every == 0 {
		return
	}
	st := &m.samp
	st.countdown = every
	st.idx = 0
	st.prevCores = make([]corePrev, len(m.cores))
	for c, cs := range m.cores {
		lk, ht := m.lookupCountsFor(c)
		st.prevCores[c] = corePrev{
			instr:   cs.instructions,
			tick:    cs.lastRetire,
			l2:      m.hier.l2[c].Stats(),
			lookups: lk,
			hits:    ht,
		}
	}
	st.prevLLC = m.hier.llc.Stats()
	st.prevDRAM = m.hier.ram.Stats()
	st.prevTick = m.now()
}

// takeSample appends one interval snapshot to the sampler.
func (m *Machine) takeSample() {
	st := &m.samp
	smp := telemetry.Sample{
		Interval: st.idx,
		Tick:     m.now(),
		Cores:    make([]telemetry.CoreSample, len(m.cores)),
	}
	var dInstrTotal uint64
	for c, cs := range m.cores {
		prev := &st.prevCores[c]
		l2 := m.hier.l2[c].Stats()
		lk, ht := m.lookupCountsFor(c)

		dInstr := cs.instructions - prev.instr
		dTicks := cs.lastRetire - prev.tick
		dMisses := l2.Misses - prev.l2.Misses
		dFills := l2.PrefetchFills - prev.l2.PrefetchFills
		dUsed := l2.PrefetchUsed - prev.l2.PrefetchUsed
		dLookups := lk - prev.lookups
		dHits := ht - prev.hits
		dInstrTotal += dInstr

		out := &smp.Cores[c]
		out.Core = c
		out.Instructions = cs.instructions
		if dTicks > 0 {
			out.IPC = round6(float64(dInstr) * dramTicksPerCycle / float64(dTicks))
		}
		if dInstr > 0 {
			out.L2MPKI = round6(float64(dMisses) * 1000 / float64(dInstr))
		}
		if dFills > 0 {
			out.Accuracy = round6(float64(dUsed) / float64(dFills))
		}
		if dUsed+dMisses > 0 {
			out.Covered = round6(float64(dUsed) / float64(dUsed+dMisses))
		}
		out.MetaWays = round6(m.hier.metaWaysOf(c))
		if dLookups > 0 {
			out.MetaHitRate = round6(float64(dHits) / float64(dLookups))
		}

		prev.instr = cs.instructions
		prev.tick = cs.lastRetire
		prev.l2 = l2
		prev.lookups = lk
		prev.hits = ht
	}
	llc := m.hier.llc.Stats()
	ram := m.hier.ram.Stats()
	dLLCMisses := llc.Misses - st.prevLLC.Misses
	dLines := ram.Total() - st.prevDRAM.Total()
	dTicks := smp.Tick - st.prevTick

	for _, cs := range m.cores {
		smp.Instructions += cs.instructions
	}
	if dInstrTotal > 0 {
		smp.LLCMPKI = round6(float64(dLLCMisses) * 1000 / float64(dInstrTotal))
	}
	smp.DRAMLines = dLines
	if dTicks > 0 {
		busy := float64(dLines) * float64(m.hier.ram.TransferTicks()) /
			(float64(dTicks) * float64(m.hier.ram.Channels()))
		if busy > 1 {
			busy = 1
		}
		smp.DRAMBusy = round6(busy)
	}

	st.prevLLC = llc
	st.prevDRAM = ram
	st.prevTick = smp.Tick
	st.idx++
	m.sampler.Add(smp)
}

// dramTicksPerCycle mirrors dram.TicksPerCycle as a float for IPC.
const dramTicksPerCycle = 4.0

// round6 rounds to 6 decimal places so the emitted series stays
// compact and stable under formatting.
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }
