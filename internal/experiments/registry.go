package experiments

import "sort"

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Short string
	Run   func(*Runner) *Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig01", "metadata reuse distribution (mcf)", (*Runner).Fig01},
		{"fig05", "Triage vs on-chip prefetchers, irregular SPEC", (*Runner).Fig05},
		{"fig06", "coverage and accuracy", (*Runner).Fig06},
		{"fig07", "gain vs LLC capacity loss breakdown", (*Runner).Fig07},
		{"fig08", "regular SPEC subset", (*Runner).Fig08},
		{"fig09", "metadata size x replacement policy", (*Runner).Fig09},
		{"fig10", "BO+Triage hybrid, single-core", (*Runner).Fig10},
		{"fig11", "vs off-chip temporal prefetchers: speedup + traffic", (*Runner).Fig11},
		{"fig12", "design space: speedup vs traffic", (*Runner).Fig12},
		{"fig13", "metadata energy: Triage vs MISB", (*Runner).Fig13},
		{"fig14", "CloudSuite server workloads, 4-core", (*Runner).Fig14},
		{"fig15", "static vs dynamic partitioning, shared LLC", (*Runner).Fig15},
		{"fig16", "4-core irregular mixes", (*Runner).Fig16},
		{"fig17", "MISB vs Triage across 2/4/8/16 cores", (*Runner).Fig17},
		{"fig18", "4-core mixed regular+irregular mixes", (*Runner).Fig18},
		{"fig19", "per-core metadata way allocation", (*Runner).Fig19},
		{"fig20", "prefetch degree sweep", (*Runner).Fig20},
		{"sens-epoch", "partition epoch-length sensitivity", (*Runner).SensEpoch},
		{"sens-latency", "extra LLC latency sensitivity", (*Runner).SensLatency},
		{"ext-zoo", "extended prefetcher zoo (paper §2 lineage)", (*Runner).ExtZoo},
		{"ext-zoo-traffic", "metadata organizations: traffic", (*Runner).ExtZooTraffic},
		{"ext-utility", "future work: utility-aware partitioning", (*Runner).ExtUtility},
		{"ext-ladder", "extension: time-shared OPTgen size ladder", (*Runner).ExtLadder},
		{"ext-llc-policy", "LLC data replacement ablation", (*Runner).ExtLLCPolicy},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists experiment ids, sorted.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// RunOne executes one experiment, converting a panic in its
// coordinator (e.g. a failed cell collected through Wait, or a broken
// figure function) into an error table so sibling experiments keep
// running.
func RunOne(r *Runner, e Experiment) (t *Table) {
	defer func() {
		if rec := recover(); rec != nil {
			t = errorTable(e, asRunError(rec))
		}
	}()
	return e.Run(r)
}
