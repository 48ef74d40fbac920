package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Runner executes figures over a worker pool. Cells go through the
// pool's memo (Pool), so baselines shared between figures (e.g. the
// no-prefetch runs used by Figs. 5, 6, 7, 10, 11, 12) and mix cells
// that two figures run identically (Figs. 15/16, 18/19) are simulated
// once per pool, whichever Runner asks first. The memo is single-
// flight: figures running concurrently (RunAll) share in-flight cells
// instead of duplicating them.
type Runner struct {
	P    Params
	pool *Pool
	// memoNS scopes this runner's cells in the pool memo: the Params
	// fingerprint, plus the invariant-check interval, so a debug run
	// never takes a cell that was simulated without its checks.
	memoNS string

	mu   sync.Mutex
	used map[string]*memoCell // cells this runner asked for, by key

	// ckpt, when set, persists every completed cell and satisfies
	// repeat keys from disk (resume of an interrupted run).
	ckpt *Checkpoint

	// graphs shares shuffled chase graphs between the readers this
	// runner's cells build.
	graphs *workload.Graphs

	runs     atomic.Uint64
	simInstr atomic.Uint64
	restored atomic.Uint64
}

// SetCheckpoint attaches an on-disk store of completed runs. Call
// before scheduling work: cells already in the store resolve from
// disk, and newly simulated ones are appended as they finish. A cell
// another Runner on the pool already holds in the memo is served from
// there and not appended.
func (r *Runner) SetCheckpoint(c *Checkpoint) { r.ckpt = c }

// NewRunner returns a Runner with the given parameters and a pool
// sized to the machine. Figures produce identical tables for any pool
// size; the pool only sets how many simulations run at once.
func NewRunner(p Params) *Runner { return NewRunnerPool(p, DefaultPool()) }

// NewRunnerPool returns a Runner executing on an explicit pool
// (cmd/experiments -j, and the determinism tests that compare -j 1
// against -j 8 output). Runners on one pool share its cell memo.
func NewRunnerPool(p Params, pool *Pool) *Runner {
	ns := p.Fingerprint(config.Default(1)) + "/"
	if p.CheckEvery > 0 {
		ns += fmt.Sprintf("check%d/", p.CheckEvery)
	}
	return &Runner{P: p, pool: pool, memoNS: ns, used: make(map[string]*memoCell), graphs: workload.NewGraphs()}
}

// GraphStats reports the runner's graph cache: chase readers served a
// cached graph, graphs shuffled, and the bytes of graphs held.
func (r *Runner) GraphStats() (hits, built uint64, heldBytes int64) { return r.graphs.Stats() }

// namedPF pairs a display name with a prefetcher factory.
//
// Naming contract: the name must identify the prefetcher configuration
// uniquely within the process — two namedPF values with the same name
// must build behaviorally identical prefetchers. Cell keys in the
// pool memo embed the name, so a name reused for a different
// configuration would silently alias cells. Inline namedPF literals in
// figures (degree sweeps, epoch sweeps) must encode every varied
// parameter in the name.
type namedPF struct {
	name string
	f    pfFactory
}

var (
	cfgNone      = namedPF{"NoL2PF", pfNone}
	cfgBO        = namedPF{"BO", pfBO}
	cfgSMS       = namedPF{"SMS", pfSMS}
	cfgT512      = namedPF{"Triage_512KB", pfTriageStatic(512 << 10)}
	cfgT1M       = namedPF{"Triage_1MB", pfTriageStatic(1 << 20)}
	cfgTDyn      = namedPF{"Triage_Dynamic", pfTriageDyn}
	cfgSTMS      = namedPF{"STMS", pfSTMS}
	cfgDomino    = namedPF{"Domino", pfDomino}
	cfgMISB      = namedPF{"MISB_48KB", pfMISB}
	cfgBOTDyn    = namedPF{"BO+Triage_Dyn", pfHybrid(pfTriageDyn, pfBO)} // accurate component first: its requests win queue slots
	cfgBOSMS     = namedPF{"BO+SMS", pfHybrid(pfBO, pfSMS)}
	cfgTUnl      = namedPF{"Triage_Unlimited", pfTriageUnlimited}
	cfgBOTStatic = namedPF{"BO+Triage_Static", pfHybrid(pfTriageStatic(1<<20), pfBO)}
)

// Fig01 reproduces the metadata reuse distribution (Fig. 1): an
// unlimited-metadata Triage on the mcf-like workload, reporting the
// reuse-count distribution over metadata entries. It is the one run
// outside the cell memo: the figure reads the run's Triage instance
// afterwards, which no stored result holds.
func (r *Runner) Fig01() *Table {
	spec, _ := workload.ByName("mcf")
	var captured *core.Triage
	factory := func(m config.Machine) prefetch.Prefetcher {
		captured = core.New(core.Config{Mode: core.Unlimited, LLCLatencyTicks: llcTicks(m)})
		return captured
	}
	Go(r.pool, func() sim.Result {
		return r.execute(spec.Name+"/reuse", func(hooks *telemetry.Hooks) sim.Result {
			return r.record(runSingle(r.P, r.graphs, spec, factory, machineChange{}, hooks))
		})
	}).Wait()
	counts := captured.ReuseCounts()
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })

	t := &Table{
		ID:     "fig01",
		Title:  "Metadata reuse distribution (mcf): reuse count by entry-rank percentile",
		Header: []string{"entry percentile", "reuse count"},
	}
	if len(counts) == 0 {
		t.Note("no metadata entries recorded")
		return t
	}
	for _, pct := range []int{0, 1, 2, 5, 10, 15, 25, 50, 75, 90, 100} {
		idx := pct * (len(counts) - 1) / 100
		t.AddRow(fmt.Sprintf("top %d%%", pct), fmt.Sprintf("%d", counts[idx]))
	}
	over15 := 0
	for _, c := range counts {
		if c > 15 {
			over15++
		}
	}
	frac := float64(over15) / float64(len(counts))
	t.AddRow("entries", fmt.Sprintf("%d total", len(counts)))
	t.Note("%.1f%% of %d entries are reused more than 15 times (paper: ~15%% of 60K)",
		frac*100, len(counts))
	t.Note("shape target: reuse is heavily skewed toward a small fraction of entries")
	return t
}

// launchGrid starts the suite x configs simulations plus each
// benchmark's no-prefetch baseline on the pool, returning the Futures
// in suite/config order. Figures collect from these in a deterministic
// second pass, so tables are identical for any pool size.
func (r *Runner) launchGrid(suite []workload.Spec, configs []namedPF) (bases []*Future[sim.Result], cells [][]*Future[sim.Result]) {
	bases = make([]*Future[sim.Result], len(suite))
	cells = make([][]*Future[sim.Result], len(suite))
	for si, spec := range suite {
		bases[si] = r.singleF(spec, cfgNone)
		cells[si] = make([]*Future[sim.Result], len(configs))
		for ci, cfg := range configs {
			cells[si][ci] = r.singleF(spec, cfg)
		}
	}
	return bases, cells
}

// speedupTable runs suite x configs and reports per-benchmark speedups
// over the no-prefetch baseline, with a geometric-mean summary row.
func (r *Runner) speedupTable(id, title string, suite []workload.Spec, configs []namedPF) *Table {
	t := &Table{ID: id, Title: title}
	t.Header = append([]string{"benchmark"}, names(configs)...)
	bases, cells := r.launchGrid(suite, configs)
	collectSpeedups(t, specNames(suite), bases, cells)
	return t
}

// collectSpeedups adds one row per label to t, holding each cell's
// speedup over its row's baseline in the columns after t.Header's
// first, then a geometric-mean row over the cells that ran. A failed
// cell, and every cell of a row whose baseline failed, reads ERROR and
// notes its error, so the rest of the figure still prints.
func collectSpeedups(t *Table, labels []string, bases []*Future[sim.Result], cells [][]*Future[sim.Result]) {
	means := make([][]float64, len(t.Header)-1)
	for ri, label := range labels {
		base, berr := bases[ri].Result()
		row := []string{label}
		for i := range means {
			// Collect every cell even under a failed baseline so no run
			// is left half-finished when the figure returns.
			res, err := cells[ri][i].Result()
			if berr != nil || err != nil {
				row = append(row, "ERROR")
				if err != nil {
					t.fail(err)
				}
				continue
			}
			sp := res.SpeedupOver(base)
			means[i] = append(means[i], sp)
			row = append(row, fmtSpeedup(sp))
		}
		if berr != nil {
			t.fail(berr)
		}
		t.AddRow(row...)
	}
	sumRow := []string{"geomean"}
	for i := range means {
		sumRow = append(sumRow, fmtSpeedup(geomean(means[i])))
	}
	t.AddRow(sumRow...)
}

func names(cfgs []namedPF) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.name
	}
	return out
}

func specNames(suite []workload.Spec) []string {
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Name
	}
	return out
}

// Fig05 compares Triage against the on-chip prefetchers BO and SMS on
// the irregular SPEC subset (paper: 23.5% vs 5.8% vs 2.2%).
func (r *Runner) Fig05() *Table {
	t := r.speedupTable("fig05",
		"Speedup over NoL2PF, irregular SPEC (Triage vs on-chip prefetchers)",
		workload.IrregularSuite(),
		[]namedPF{cfgBO, cfgSMS, cfgT512, cfgT1M, cfgTDyn})
	t.Note("shape target: Triage variants >> BO > SMS; Triage_Dynamic >= Triage_1MB")
	return t
}

// Fig06 reports prefetcher coverage and accuracy on the irregular
// subset (paper: Triage 42.0%/77.2%, BO 13.0%/43.3%, SMS 4.6%/39.6%).
func (r *Runner) Fig06() *Table {
	configs := []namedPF{cfgBO, cfgSMS, cfgT512, cfgT1M, cfgTDyn}
	t := &Table{ID: "fig06", Title: "Prefetcher coverage / accuracy, irregular SPEC"}
	t.Header = append([]string{"benchmark"}, names(configs)...)
	suite := workload.IrregularSuite()
	bases, cells := r.launchGrid(suite, configs)
	covSums := make([][]float64, len(configs))
	accSums := make([][]float64, len(configs))
	for si, spec := range suite {
		base := bases[si].Wait()
		row := []string{spec.Name}
		for i := range configs {
			res := cells[si][i].Wait()
			cov, acc := res.CoverageOver(base), res.Accuracy()
			covSums[i] = append(covSums[i], cov)
			accSums[i] = append(accSums[i], acc)
			row = append(row, fmt.Sprintf("%.0f%%/%.0f%%", cov*100, acc*100))
		}
		t.AddRow(row...)
	}
	row := []string{"average"}
	for i := range configs {
		row = append(row, fmt.Sprintf("%.0f%%/%.0f%%", mean(covSums[i])*100, mean(accSums[i])*100))
	}
	t.AddRow(row...)
	t.Note("cells are coverage/accuracy; shape target: Triage highest on both")
	return t
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Fig07 breaks down Triage's gain vs the LLC capacity it consumes:
// an optimistic Triage with a free 1MB store, a 1MB-LLC machine with no
// prefetching, and real Triage (1MB LLC data + 1MB metadata).
func (r *Runner) Fig07() *Table {
	t := &Table{
		ID:     "fig07",
		Title:  "Breakdown of Triage's improvement vs capacity loss (speedup over 2MB LLC, NoL2PF)",
		Header: []string{"benchmark", "2MB LLC + 1MB Triage (free)", "1MB LLC, NoL2PF", "1MB LLC + 1MB Triage"},
	}
	suite := workload.IrregularSuite()
	bases := make([]*Future[sim.Result], len(suite))
	cells := make([][]*Future[sim.Result], len(suite))
	for si, spec := range suite {
		bases[si] = r.singleF(spec, cfgNone)
		cells[si] = []*Future[sim.Result]{
			// Optimistic: metadata store does not consume LLC capacity.
			r.changedF(spec, cfgT1M, machineChange{FreeStore: true}),
			// Capacity loss alone: half-size LLC, no prefetching.
			r.changedF(spec, cfgNone, machineChange{LLCBytes: 1 << 20}),
			// Real Triage on the normal machine.
			r.singleF(spec, cfgT1M),
		}
	}
	collectSpeedups(t, specNames(suite), bases, cells)
	t.Note("paper: +31.2%% free-store gain, -7.4%% capacity loss, +23.4%% net")
	t.Note("shape target: prefetching gain far exceeds the capacity penalty")
	return t
}

// Fig08 runs the regular SPEC subset (paper: BO wins, Triage-Dynamic
// avoids harm except slight loss on bzip2-like capacity-bound loops).
func (r *Runner) Fig08() *Table {
	t := r.speedupTable("fig08",
		"Speedup over NoL2PF, regular SPEC subset",
		workload.RegularSuite(),
		[]namedPF{cfgBO, cfgSMS, cfgT512, cfgT1M, cfgTDyn})
	t.Note("shape target: BO >= Triage on regular codes; Triage_Dynamic ~1.0 (no harm)")
	return t
}

// Fig09 sweeps the metadata store size and replacement policy assuming
// no LLC capacity loss (paper Fig. 9: Hawkeye >> LRU at small sizes;
// both approach the unlimited 'Perfect' prefetcher by 1MB).
func (r *Runner) Fig09() *Table {
	sizes := []int{128 << 10, 256 << 10, 512 << 10, 1 << 20}
	t := &Table{ID: "fig09", Title: "Sensitivity to metadata store size (no LLC capacity loss)"}
	t.Header = []string{"store size", "LRU", "Hawkeye"}
	suite := workload.IrregularSuite()
	pols := []core.Replacement{core.LRU, core.Hawkeye}
	polNames := []string{"LRU", "Hawkeye"}
	baseFs := make([]*Future[sim.Result], len(suite))
	perfFs := make([]*Future[sim.Result], len(suite))
	cellFs := make([][][]*Future[sim.Result], len(sizes)) // [size][spec][pol]
	for si, spec := range suite {
		baseFs[si] = r.singleF(spec, cfgNone)
		perfFs[si] = r.singleF(spec, cfgTUnl)
	}
	for zi, size := range sizes {
		size := size
		cellFs[zi] = make([][]*Future[sim.Result], len(suite))
		for si, spec := range suite {
			cellFs[zi][si] = make([]*Future[sim.Result], len(pols))
			for pi, pol := range pols {
				pol := pol
				cfg := namedPF{fmt.Sprintf("Triage_%dKB_%s", size>>10, polNames[pi]), func(m config.Machine) prefetch.Prefetcher {
					return core.New(core.Config{
						Mode: core.Static, StaticBytes: size,
						Replacement: pol, LLCLatencyTicks: llcTicks(m),
					})
				}}
				if size == 1<<20 && pol == core.Hawkeye {
					cfg = cfgT1M // fig07's free-store column: one cell, one key
				}
				cellFs[zi][si][pi] = r.changedF(spec, cfg, machineChange{FreeStore: true})
			}
		}
	}
	for zi, size := range sizes {
		var lru, hawk []float64
		for si := range suite {
			base := baseFs[si].Wait()
			lru = append(lru, cellFs[zi][si][0].Wait().SpeedupOver(base))
			hawk = append(hawk, cellFs[zi][si][1].Wait().SpeedupOver(base))
		}
		t.AddRow(fmt.Sprintf("%dKB", size>>10), fmtSpeedup(geomean(lru)), fmtSpeedup(geomean(hawk)))
	}
	var perfect []float64
	for si := range suite {
		perfect = append(perfect, perfFs[si].Wait().SpeedupOver(baseFs[si].Wait()))
	}
	t.AddRow("unlimited (Perfect)", "-", fmtSpeedup(geomean(perfect)))
	t.Note("paper: 256KB LRU 7.7%% vs Hawkeye 13.7%%; gap shrinks at 1MB; 1MB ~ 75%% of Perfect")
	return t
}

// Fig10 evaluates the BO+Triage hybrid on the irregular subset
// (paper: 24.8% for BO+Triage vs 5.8% for BO alone).
func (r *Runner) Fig10() *Table {
	t := r.speedupTable("fig10",
		"Hybrid prefetching, irregular SPEC",
		workload.IrregularSuite(),
		[]namedPF{cfgBO, cfgTDyn, cfgBOTDyn})
	t.Note("shape target: BO+Triage >= max(BO, Triage) per benchmark")
	return t
}

// Fig11 compares Triage with the off-chip temporal prefetchers: speedup
// (top of Fig. 11) and off-chip traffic relative to NoL2PF (bottom).
func (r *Runner) Fig11() *Table {
	configs := []namedPF{cfgSTMS, cfgDomino, cfgMISB, cfgT1M}
	t := &Table{ID: "fig11", Title: "Off-chip temporal prefetchers: speedup and relative traffic"}
	t.Header = []string{"benchmark"}
	for _, c := range configs {
		t.Header = append(t.Header, c.name+" spd", c.name+" traf")
	}
	suite := workload.IrregularSuite()
	bases, cells := r.launchGrid(suite, configs)
	spSums := make([][]float64, len(configs))
	trSums := make([][]float64, len(configs))
	for si, spec := range suite {
		base := bases[si].Wait()
		row := []string{spec.Name}
		for i := range configs {
			res := cells[si][i].Wait()
			sp := res.SpeedupOver(base)
			tr := 1.0
			if bt := base.TotalTraffic(); bt > 0 {
				tr = float64(res.TotalTraffic()+res.EstimatedMetadataTransfers) / float64(bt)
			}
			spSums[i] = append(spSums[i], sp)
			trSums[i] = append(trSums[i], tr)
			row = append(row, fmtSpeedup(sp), fmtF(tr))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for i := range configs {
		row = append(row, fmtSpeedup(geomean(spSums[i])), fmtF(geomean(trSums[i])))
	}
	t.AddRow(row...)
	t.Note("traffic is relative to NoL2PF (1.00 = no overhead); paper overheads: STMS 4.8x, Domino 4.8x, MISB 2.6x, Triage 1.6x")
	t.Note("shape target: MISB > Triage > STMS~Domino on speedup; Triage lowest traffic")
	return t
}

// Fig12 summarizes the design space: average speedup vs average traffic
// overhead per prefetcher (the scatter of Fig. 12).
func (r *Runner) Fig12() *Table {
	configs := []namedPF{cfgBO, cfgSTMS, cfgDomino, cfgMISB, cfgT1M, cfgTDyn}
	t := &Table{
		ID:     "fig12",
		Title:  "Design space: speedup vs off-chip traffic overhead (irregular SPEC averages)",
		Header: []string{"prefetcher", "speedup", "traffic overhead"},
	}
	suite := workload.IrregularSuite()
	bases, cells := r.launchGrid(suite, configs)
	for ci, cfg := range configs {
		var sps, trs []float64
		for si := range suite {
			base := bases[si].Wait()
			res := cells[si][ci].Wait()
			sps = append(sps, res.SpeedupOver(base))
			bt := float64(base.TotalTraffic())
			over := 0.0
			if bt > 0 {
				over = 100 * (float64(res.TotalTraffic()+res.EstimatedMetadataTransfers) - bt) / bt
			}
			trs = append(trs, over)
		}
		t.AddRow(cfg.name, fmtSpeedup(geomean(sps)), fmtPct(mean(trs)))
	}
	t.Note("shape target: Triage dominates STMS/Domino; MISB fastest but with much higher traffic")
	return t
}

// Fig13 estimates metadata-access energy: Triage pays 1 unit per LLC
// metadata access; MISB pays 25 [10, 50] units per off-chip metadata
// access (paper's model).
func (r *Runner) Fig13() *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "Energy overhead of MISB's metadata accesses over Triage (x)",
		Header: []string{"benchmark", "Triage accesses", "MISB accesses", "ratio @10", "ratio @25", "ratio @50"},
	}
	suite := workload.IrregularSuite()
	triFs := make([]*Future[sim.Result], len(suite))
	miFs := make([]*Future[sim.Result], len(suite))
	for si, spec := range suite {
		triFs[si] = r.singleF(spec, cfgT1M)
		miFs[si] = r.singleF(spec, cfgMISB)
	}
	var ratios []float64
	for si, spec := range suite {
		tri := triFs[si].Wait()
		mi := miFs[si].Wait()
		te := float64(tri.TriageLLCMetadataAccesses)
		me := float64(mi.MISBOffChipMetadataAccesses)
		if te == 0 {
			te = 1
		}
		r10, r25, r50 := me*10/te, me*25/te, me*50/te
		ratios = append(ratios, r25)
		t.AddRow(spec.Name,
			fmt.Sprintf("%.0f", te), fmt.Sprintf("%.0f", me),
			fmtF(r10), fmtF(r25), fmtF(r50))
	}
	t.AddRow("geomean", "", "", "", fmtF(geomean(ratios)), "")
	t.Note("paper: Triage's metadata accesses are 4-22x more energy efficient than MISB's")
	return t
}

// Fig20 sweeps the prefetch degree (paper Fig. 20: Triage grows to
// ~36% at degree 8 then saturates; BO's accuracy collapses).
func (r *Runner) Fig20() *Table {
	degrees := []int{1, 2, 4, 8, 16}
	t := &Table{ID: "fig20", Title: "Sensitivity to prefetch degree (irregular SPEC averages)"}
	t.Header = []string{"degree", "BO spd", "SMS spd", "Triage spd", "BO acc", "SMS acc", "Triage acc"}
	suite := workload.IrregularSuite()
	basesF := make([]*Future[sim.Result], len(suite))
	cellFs := make([][][]*Future[sim.Result], len(degrees)) // [degree][spec][config]
	for si, spec := range suite {
		basesF[si] = r.singleF(spec, cfgNone)
	}
	for di, d := range degrees {
		d := d
		mk := func(base pfFactory) pfFactory {
			return func(m config.Machine) prefetch.Prefetcher {
				p := base(m)
				if ds, ok := p.(prefetch.DegreeSetter); ok {
					ds.SetDegree(d)
				}
				return p
			}
		}
		configs := []namedPF{
			{fmt.Sprintf("BO-d%d", d), mk(pfBO)},
			{fmt.Sprintf("SMS-d%d", d), mk(pfSMS)},
			{fmt.Sprintf("Triage-d%d", d), mk(pfTriageStatic(1 << 20))},
		}
		cellFs[di] = make([][]*Future[sim.Result], len(suite))
		for si, spec := range suite {
			cellFs[di][si] = make([]*Future[sim.Result], len(configs))
			for ci, cfg := range configs {
				cellFs[di][si][ci] = r.singleF(spec, cfg)
			}
		}
	}
	for di, d := range degrees {
		var sp [3][]float64
		var acc [3][]float64
		for si := range suite {
			base := basesF[si].Wait()
			for i := 0; i < 3; i++ {
				res := cellFs[di][si][i].Wait()
				sp[i] = append(sp[i], res.SpeedupOver(base))
				acc[i] = append(acc[i], res.Accuracy())
			}
		}
		t.AddRow(fmt.Sprintf("%d", d),
			fmtSpeedup(geomean(sp[0])), fmtSpeedup(geomean(sp[1])), fmtSpeedup(geomean(sp[2])),
			fmtPct(mean(acc[0])*100), fmtPct(mean(acc[1])*100), fmtPct(mean(acc[2])*100))
	}
	t.Note("shape target: Triage speedup grows with degree and saturates ~8; Triage accuracy stays well above BO")
	return t
}

// SensEpoch varies the partition re-evaluation period (paper §4.6:
// performance is insensitive to epochs below 50K metadata accesses).
func (r *Runner) SensEpoch() *Table {
	epochs := []int{10_000, 25_000, 50_000, 100_000, 200_000}
	t := &Table{ID: "sens-epoch", Title: "Sensitivity to partition epoch length (Triage-Dynamic)"}
	t.Header = []string{"epoch (metadata accesses)", "speedup"}
	suite := workload.IrregularSuite()
	baseFs := make([]*Future[sim.Result], len(suite))
	cellFs := make([][]*Future[sim.Result], len(epochs))
	for si, spec := range suite {
		baseFs[si] = r.singleF(spec, cfgNone)
	}
	for ei, e := range epochs {
		e := e
		cellFs[ei] = make([]*Future[sim.Result], len(suite))
		for si, spec := range suite {
			cellFs[ei][si] = r.singleF(spec, namedPF{
				fmt.Sprintf("TriageDyn-e%d", e),
				func(m config.Machine) prefetch.Prefetcher {
					return core.New(core.Config{
						Mode: core.Dynamic, EpochAccesses: e, LLCLatencyTicks: llcTicks(m),
					})
				},
			})
		}
	}
	for ei, e := range epochs {
		var sps []float64
		for si := range suite {
			sps = append(sps, cellFs[ei][si].Wait().SpeedupOver(baseFs[si].Wait()))
		}
		t.AddRow(fmt.Sprintf("%d", e), fmtSpeedup(geomean(sps)))
	}
	t.Note("shape target: flat across epoch lengths")
	return t
}

// SensLatency penalizes LLC latency by up to 6 extra cycles for both
// data and metadata (paper §4.6: ~1% performance loss at +6 cycles).
func (r *Runner) SensLatency() *Table {
	t := &Table{ID: "sens-latency", Title: "Sensitivity to extra LLC latency (Triage_1MB)"}
	t.Header = []string{"extra cycles", "speedup over unpenalized NoL2PF"}
	extras := []int{0, 2, 4, 6}
	suite := workload.IrregularSuite()
	baseFs := make([]*Future[sim.Result], len(suite))
	cellFs := make([][]*Future[sim.Result], len(extras))
	for si, spec := range suite {
		baseFs[si] = r.singleF(spec, cfgNone) // unpenalized baseline
	}
	for xi, extra := range extras {
		cellFs[xi] = make([]*Future[sim.Result], len(suite))
		for si, spec := range suite {
			cellFs[xi][si] = r.changedF(spec, cfgT1M, machineChange{ExtraLatency: extra})
		}
	}
	for xi, extra := range extras {
		var sps []float64
		for si := range suite {
			sps = append(sps, cellFs[xi][si].Wait().SpeedupOver(baseFs[si].Wait()))
		}
		t.AddRow(fmt.Sprintf("+%d", extra), fmtSpeedup(geomean(sps)))
	}
	t.Note("shape target: small monotone loss, ~1%% at +6 cycles")
	return t
}
