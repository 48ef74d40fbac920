package experiments

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// launchMixGrid starts every mix's no-prefetch baseline plus the mix x
// config grid on the pool, returning the Futures in input order for a
// deterministic collect pass.
func (r *Runner) launchMixGrid(mixes []workload.MixSpec, configs []namedPF) (bases []*Future[sim.Result], cells [][]*Future[sim.Result]) {
	bases = make([]*Future[sim.Result], len(mixes))
	cells = make([][]*Future[sim.Result], len(mixes))
	for mi, mix := range mixes {
		bases[mi] = r.runMixF(mix, cfgNone)
		cells[mi] = make([]*Future[sim.Result], len(configs))
		for ci, cfg := range configs {
			cells[mi][ci] = r.runMixF(mix, cfg)
		}
	}
	return bases, cells
}

// Fig14 evaluates the server workloads on a 4-core system (paper:
// BO+Triage 13.7% vs BO 8.6%; Triage wins the irregular three, BO/SMS
// the regular two; BO+SMS degrades vs BO).
func (r *Runner) Fig14() *Table {
	configs := []namedPF{cfgSMS, cfgBO, cfgTDyn, {"Triage_Static", pfTriageStatic(1 << 20)},
		cfgBOSMS, cfgBOTStatic, cfgBOTDyn}
	t := &Table{ID: "fig14", Title: "CloudSuite-like server workloads, 4-core"}
	t.Header = append([]string{"benchmark"}, names(configs)...)
	suite := workload.CloudSuite()
	baseFs := make([]*Future[sim.Result], len(suite))
	cellFs := make([][]*Future[sim.Result], len(suite))
	for si, spec := range suite {
		baseFs[si] = r.runRateF(spec, 4, cfgNone)
		cellFs[si] = make([]*Future[sim.Result], len(configs))
		for ci, cfg := range configs {
			cellFs[si][ci] = r.runRateF(spec, 4, cfg)
		}
	}
	sums := make([][]float64, len(configs))
	for si, spec := range suite {
		base := baseFs[si].Wait()
		row := []string{spec.Name}
		for i := range configs {
			res := cellFs[si][i].Wait()
			sp := res.SpeedupOver(base)
			sums[i] = append(sums[i], sp)
			row = append(row, fmtSpeedup(sp))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for i := range configs {
		row = append(row, fmtSpeedup(geomean(sums[i])))
	}
	t.AddRow(row...)
	t.Note("shape target: Triage wins cassandra/classification/cloud9; BO wins nutch/streaming; BO+Triage best overall; BO+SMS <= BO")
	return t
}

// Fig15 compares Triage-Static against Triage-Dynamic on 4-core
// irregular mixes sharing the LLC (paper: 4.8% vs 10.2%).
func (r *Runner) Fig15() *Table {
	mixes := workload.Mixes(r.P.Mixes, 4, r.P.Seed, true)
	t := &Table{ID: "fig15", Title: "Shared-cache 4-core irregular mixes: static vs dynamic partitioning"}
	t.Header = []string{"mix", "Triage_Static", "Triage_Dynamic"}
	type rowv struct {
		name   string
		st, dy float64
	}
	bases, cells := r.launchMixGrid(mixes, []namedPF{
		{"Triage_Static", pfTriageStatic(1 << 20)}, cfgTDyn,
	})
	var rows []rowv
	for mi, mix := range mixes {
		base := bases[mi].Wait()
		st := cells[mi][0].Wait().SpeedupOver(base)
		dy := cells[mi][1].Wait().SpeedupOver(base)
		rows = append(rows, rowv{mix.Name, st, dy})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dy > rows[j].dy })
	var sts, dys []float64
	for _, rv := range rows {
		sts = append(sts, rv.st)
		dys = append(dys, rv.dy)
		t.AddRow(rv.name, fmtSpeedup(rv.st), fmtSpeedup(rv.dy))
	}
	t.AddRow("geomean", fmtSpeedup(geomean(sts)), fmtSpeedup(geomean(dys)))
	t.Note("shape target: dynamic > static when the LLC is shared")
	return t
}

// Fig16 runs 4-core irregular mixes with BO, Triage-Dynamic, and the
// hybrid (paper: 10.6%, 10.2%, 15.9%).
func (r *Runner) Fig16() *Table {
	mixes := workload.Mixes(r.P.Mixes, 4, r.P.Seed, true)
	configs := []namedPF{cfgBO, cfgTDyn, cfgBOTDyn}
	t := &Table{ID: "fig16", Title: "4-core irregular multi-programmed mixes"}
	t.Header = append([]string{"mix"}, names(configs)...)
	bases, cells := r.launchMixGrid(mixes, configs)
	sums := make([][]float64, len(configs))
	for mi, mix := range mixes {
		base := bases[mi].Wait()
		row := []string{mix.Name}
		for i := range configs {
			sp := cells[mi][i].Wait().SpeedupOver(base)
			sums[i] = append(sums[i], sp)
			row = append(row, fmtSpeedup(sp))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for i := range configs {
		row = append(row, fmtSpeedup(geomean(sums[i])))
	}
	t.AddRow(row...)
	t.Note("shape target: BO+Triage_Dyn > BO and > Triage_Dyn")
	return t
}

// Fig17 scales core count: MISB vs Triage-Dynamic on irregular mixes at
// 2, 4, 8 and 16 cores (paper: MISB wins at 2 cores, Triage wins in the
// bandwidth-starved 16-core system).
func (r *Runner) Fig17() *Table {
	t := &Table{ID: "fig17", Title: "MISB vs Triage across core counts (irregular mixes)"}
	t.Header = []string{"cores", "MISB_48KB", "Triage_Dynamic"}
	mixCount := r.P.Mixes / 2
	if mixCount < 2 {
		mixCount = 2
	}
	coreCounts := []int{2, 4, 8, 16}
	baseFs := make([][]*Future[sim.Result], len(coreCounts))
	cellFs := make([][][]*Future[sim.Result], len(coreCounts))
	for ci, cores := range coreCounts {
		mixes := workload.Mixes(mixCount, cores, r.P.Seed+uint64(cores), true)
		baseFs[ci], cellFs[ci] = r.launchMixGrid(mixes, []namedPF{cfgMISB, cfgTDyn})
	}
	for ci, cores := range coreCounts {
		var mi, tr []float64
		for mj := range baseFs[ci] {
			base := baseFs[ci][mj].Wait()
			mi = append(mi, cellFs[ci][mj][0].Wait().SpeedupOver(base))
			tr = append(tr, cellFs[ci][mj][1].Wait().SpeedupOver(base))
		}
		t.AddRow(fmt.Sprintf("%d", cores), fmtSpeedup(geomean(mi)), fmtSpeedup(geomean(tr)))
	}
	t.Note("paper: 2-core 16.0%% vs 12.1%%; 16-core 4.3%% vs 6.2%% (crossover)")
	t.Note("shape target: MISB's advantage shrinks with cores and inverts by 16")
	return t
}

// Fig18 runs 4-core mixes that include regular programs (paper:
// BO+Triage 23% vs BO 19.3%; Triage alone only 4.3%).
func (r *Runner) Fig18() *Table {
	mixes := workload.Mixes(r.P.Mixes, 4, r.P.Seed^0xBEEF, false)
	configs := []namedPF{cfgBOTDyn, cfgBO, cfgTDyn}
	t := &Table{ID: "fig18", Title: "4-core mixed regular+irregular mixes"}
	t.Header = append([]string{"mix"}, names(configs)...)
	bases, cells := r.launchMixGrid(mixes, configs)
	sums := make([][]float64, len(configs))
	for mi, mix := range mixes {
		base := bases[mi].Wait()
		row := []string{mix.Name}
		for i := range configs {
			sp := cells[mi][i].Wait().SpeedupOver(base)
			sums[i] = append(sums[i], sp)
			row = append(row, fmtSpeedup(sp))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for i := range configs {
		row = append(row, fmtSpeedup(geomean(sums[i])))
	}
	t.AddRow(row...)
	t.Note("shape target: BO+Triage > BO > Triage-alone on mixed mixes")
	return t
}

// Fig19 reports the per-core LLC ways allocated to metadata by
// Triage-Dynamic on mixed 4-core mixes (paper: allocations vary by mix
// and by core; regular programs get ~0 ways).
func (r *Runner) Fig19() *Table {
	mixes := workload.Mixes(r.P.Mixes, 4, r.P.Seed^0xBEEF, false)
	t := &Table{ID: "fig19", Title: "LLC ways allocated to metadata per core (Triage-Dynamic, mixed mixes)"}
	t.Header = []string{"mix", "core0", "core1", "core2", "core3", "benchmarks"}
	resFs := make([]*Future[sim.Result], len(mixes))
	for mi, mix := range mixes {
		resFs[mi] = r.runMixF(mix, cfgTDyn)
	}
	for mi, mix := range mixes {
		res := resFs[mi].Wait()
		row := []string{mix.Name}
		namesCol := ""
		for c, cr := range res.Cores {
			row = append(row, fmtF(cr.AvgMetadataWays))
			if c > 0 {
				namesCol += "+"
			}
			namesCol += mix.Specs[c].Name
		}
		row = append(row, namesCol)
		t.AddRow(row...)
	}
	t.Note("units: time-averaged 16-way-LLC ways; shape target: allocations differ across cores and mixes; regular benchmarks get ~0")
	return t
}
