package experiments

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// ExtZoo quantifies the paper's §2 qualitative claims about the wider
// prefetcher family tree on the irregular suite: next-line and GHB
// delta correlation (weaker correlations that fit on chip), a bounded
// on-chip Markov table (the K-successor redundancy problem), and ISB
// (PC-localized address correlation with TLB-synced off-chip metadata).
func (r *Runner) ExtZoo() *Table {
	configs := []namedPF{
		{"NextLine", prefetcherTable["nextline"]},
		{"GHB_G/DC", prefetcherTable["ghb"]},
		{"Markov_1MB", prefetcherTable["markov"]},
		{"ISB", prefetcherTable["isb"]},
		cfgT1M,
	}
	t := r.speedupTable("ext-zoo",
		"Extended zoo on irregular SPEC (the paper's §2 lineage, quantified)",
		workload.IrregularSuite(), configs)
	t.Note("shape target: Triage >= ISB > Markov (redundancy halves capacity) >> GHB ~ NextLine ~ 1.0")
	t.Note("ISB here pays page-granular TLB-sync metadata traffic; Markov is bounded to 1MB on-chip")
	return t
}

// ExtZooTraffic reports the traffic side of the extended zoo.
func (r *Runner) ExtZooTraffic() *Table {
	configs := []namedPF{
		{"ISB", prefetcherTable["isb"]},
		cfgMISB,
		cfgT1M,
	}
	t := &Table{
		ID:     "ext-zoo-traffic",
		Title:  "Metadata organizations: relative off-chip traffic (irregular SPEC)",
		Header: []string{"benchmark", "ISB traf", "MISB traf", "Triage traf"},
	}
	suite := workload.IrregularSuite()
	bases, cells := r.launchGrid(suite, configs)
	sums := make([][]float64, len(configs))
	for si, spec := range suite {
		base := bases[si].Wait()
		row := []string{spec.Name}
		for i := range configs {
			res := cells[si][i].Wait()
			tr := 1.0
			if bt := base.TotalTraffic(); bt > 0 {
				tr = float64(res.TotalTraffic()+res.EstimatedMetadataTransfers) / float64(bt)
			}
			sums[i] = append(sums[i], tr)
			row = append(row, fmtF(tr))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for i := range configs {
		row = append(row, fmtF(geomean(sums[i])))
	}
	t.AddRow(row...)
	t.Note("shape target: ISB > MISB > Triage (paper §2.1: 200-400%% -> 156%% -> ~59%%)")
	return t
}

// ExtUtility evaluates the paper's named future work: utility-aware
// partitioning. It must preserve Dynamic's irregular wins while
// repairing the Fig. 8 bzip2-style losses.
func (r *Runner) ExtUtility() *Table {
	cfgUtil := namedPF{"Triage_DynUtil", pfTriageDynUtil}
	t := &Table{
		ID:     "ext-utility",
		Title:  "Future-work extension: utility-aware partitioning vs Triage-Dynamic",
		Header: []string{"benchmark", "Triage_Dynamic", "Triage_DynUtil"},
	}
	suite := []workload.Spec{}
	// The capacity-sensitive regulars where Dynamic can be baited...
	for _, name := range []string{"bzip2", "milc", "zeusmp", "cactusADM", "gobmk"} {
		if s, ok := workload.ByName(name); ok {
			suite = append(suite, s)
		}
	}
	// ...plus the irregular suite, where the extension must not regress.
	suite = append(suite, workload.IrregularSuite()...)
	bases, cells := r.launchGrid(suite, []namedPF{cfgTDyn, cfgUtil})
	collectSpeedups(t, specNames(suite), bases, cells)
	t.Note("shape target: DynUtil >= Dynamic on capacity-sensitive regulars, ~equal on irregulars")
	return t
}

// ExtLadder evaluates the paper's §3 time-shared-OPTgen sketch: a
// four-rung ladder (256KB..2MB) against the fixed two-point Dynamic
// scheme. The ladder can reach sizes Dynamic cannot express (256KB,
// 2MB) at the cost of slower convergence.
func (r *Runner) ExtLadder() *Table {
	cfgLadder := namedPF{"Triage_Ladder", func(m config.Machine) prefetch.Prefetcher {
		return core.New(core.Config{Mode: core.DynamicLadder, LLCLatencyTicks: llcTicks(m)})
	}}
	t := &Table{
		ID:     "ext-ladder",
		Title:  "Extension: time-shared OPTgen ladder (256KB-2MB) vs two-point Dynamic",
		Header: []string{"benchmark", "Triage_Dynamic", "Triage_Ladder"},
	}
	suite := workload.IrregularSuite()
	bases, cells := r.launchGrid(suite, []namedPF{cfgTDyn, cfgLadder})
	collectSpeedups(t, specNames(suite), bases, cells)
	t.Note("shape target: ladder within a few points of Dynamic; differences reflect its wider size range and slower convergence")
	return t
}

// ExtLLCPolicy checks an orthogonal ablation: does running Hawkeye as
// the LLC *data* replacement policy change Triage's picture? (The paper
// keeps LLC data replacement fixed; this bounds that choice.)
func (r *Runner) ExtLLCPolicy() *Table {
	t := &Table{
		ID:     "ext-llc-policy",
		Title:  "LLC data replacement under Triage: LRU vs Hawkeye",
		Header: []string{"benchmark", "Triage/LRU-LLC", "Triage/Hawkeye-LLC"},
	}
	suite := workload.IrregularSuite()
	bases, cells := r.launchGrid(suite, []namedPF{cfgT1M})
	for si, spec := range suite {
		cells[si] = append(cells[si], r.changedF(spec, cfgT1M, machineChange{LLCPolicy: "hawkeye"}))
	}
	collectSpeedups(t, specNames(suite), bases, cells)
	t.Note("shape target: second-order effect either way (footprints >> LLC)")
	return t
}
