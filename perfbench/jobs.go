package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/experiments"
)

// Job classes of the service and cluster workloads.
const (
	classSingle = "single" // fresh single-core job with its own warm prefix
	classWarm   = "warm"   // fresh job reusing an earlier job's warm prefix
	classMulti  = "multi"  // fresh 4-core rate-mode job
	classRepeat = "repeat" // resubmission of an earlier spec, deduped in memory
)

// jobItem is one submission of the seeded job sequence.
type jobItem struct {
	spec  experiments.RunSpec
	class string
	// after is the index of an earlier item that must be admitted before
	// this one is submitted (the parent whose warm snapshot it reuses, or
	// the spec it repeats), or -1. Admission order is run order on one
	// worker, so the dependency holds without waiting for completion.
	after int
}

func (it jobItem) fresh() bool { return it.class != classRepeat }

// Generators by the paper's workload classes.
var (
	irregularBenches = []string{"mcf", "omnetpp", "soplex_k", "xalancbmk", "gcc_166", "astar_lakes", "sphinx3"}
	regularBenches   = []string{"perlbench", "bzip2", "milc", "libquantum", "lbm", "soplex_rail"}
	serverBenches    = []string{"cassandra", "classification", "cloud9", "nutch", "streaming"}
)

// singlePFs weights the single-core prefetchers. Admission builds the
// prefetcher to validate a spec: next to nothing for none and bo, a
// zeroed multi-megabyte table for misb and the Triage variants, whose
// cost swings with memory-bandwidth contention from other tenants. So
// store-hit latency is multimodal by prefetcher; with these weights
// none and bo make up 60% of the specs and the median sits inside their
// mode, not on a boundary between modes.
var singlePFs = []string{"none", "bo", "none", "bo", "misb", "triage-dyn", "none", "bo", "triage+bo", "triage-1m"}

// multiPFs are the 4-core prefetchers. Their warm snapshots are the
// largest and their cost decides p95, so the class keeps to the two
// light ones of similar cost and leaves misb and Triage to single-core.
var multiPFs = []string{"none", "bo"}

// Instruction windows per core. A single-core job costs 30-110 ms on a
// 2-core Xeon VM, a 4-core job 200-450 ms.
const (
	singleWarmup  = 150_000
	singleMeasure = 250_000
	warmStep      = 100_000 // each reuse of a warm prefix measures this much longer
	multiWarmup   = 50_000
	multiMeasure  = 100_000
)

// One block of the sequence: fresh single-core jobs with their own warm
// prefix, fresh jobs reusing one of them, fresh 4-core jobs (half
// reusing an earlier 4-core prefix), and repeats. Every block has the
// same mix of classes and prefetchers, so blocks take about the same
// time and their median is a steady measure of the closed loop. A
// block takes 2.3-3.4 s on a 2-core Xeon VM, so eight blocks per 30
// seconds of --seconds fill about that long; they hold 480 fresh jobs,
// 24 beyond the p95 latency. The 4-core share (10%) is large enough
// that p95 falls among latencies that include a 4-core run.
const (
	blockSingle = 20
	blockWarm   = 34
	blockMulti  = 6
	blockRepeat = 8
	blocksPer30 = 8
)

// makeSequence builds the seeded job sequence for a run of the given
// length, as blocks that run one after the other. The seed picks
// generator seeds, benchmarks within each class, which jobs repeat
// which, and the order within a block; the number of jobs of each
// class and prefetcher is fixed, so the work barely changes from seed
// to seed.
func makeSequence(seed uint64, seconds int) [][]jobItem {
	rng := rand.New(rand.NewPCG(seed, 0x7065726662656e63))
	nBlocks := max(1, int(math.Round(float64(seconds)*blocksPer30/30)))

	// Generator seeds are unique per job within a run and differ between
	// run seeds, so no two fresh jobs share a result key.
	seedBase := (seed%1_000_000)*10_000 + 1
	next := uint64(0)
	jobSeed := func() uint64 { next++; return seedBase + next }

	// Benchmarks rotate within each class from a seeded offset, so every
	// benchmark is used about equally often.
	classes := [][]string{irregularBenches, regularBenches, serverBenches}
	rot := make([]int, len(classes))
	for i := range rot {
		rot[i] = rng.IntN(len(classes[i]))
	}
	pick := func(c int) string {
		b := classes[c][rot[c]%len(classes[c])]
		rot[c]++
		return b
	}

	blocks := make([][]jobItem, nBlocks)
	for blk := range blocks {
		type node struct {
			it  jobItem
			pos float64 // random position in the block
			dep int     // index into nodes of the dependency, or -1
		}
		var nodes []node
		for k := 0; k < blockSingle; k++ {
			spec := experiments.RunSpec{
				Bench: pick((k + blk) % len(classes)), PF: singlePFs[k%len(singlePFs)],
				Warmup: singleWarmup, Measure: singleMeasure, Seed: jobSeed(),
			}
			nodes = append(nodes, node{jobItem{spec: spec, class: classSingle}, rng.Float64(), -1})
		}
		var multiParents []int
		for m := 0; m < blockMulti/2; m++ {
			spec := experiments.RunSpec{
				Bench: pick(2 * ((m + blk) % 2)), PF: multiPFs[m%len(multiPFs)], Cores: 4,
				Warmup: multiWarmup, Measure: multiMeasure, Seed: jobSeed(),
			}
			multiParents = append(multiParents, len(nodes))
			nodes = append(nodes, node{jobItem{spec: spec, class: classMulti}, rng.Float64(), -1})
		}
		// Reuses of a warm prefix: same benchmark, prefetcher, seed and
		// warmup, a longer measurement window. Each parent's reuses
		// measure successively longer windows, so their keys stay
		// distinct. They go round-robin over the parents, so how many
		// specs use each prefetcher does not depend on the seed.
		reuses := map[int]int{}
		reuse := func(parent int, class string) {
			reuses[parent]++
			spec := nodes[parent].it.spec
			spec.Measure += uint64(reuses[parent]) * warmStep
			p := nodes[parent].pos
			nodes = append(nodes, node{jobItem{spec: spec, class: class}, p + (1-p)*rng.Float64(), parent})
		}
		for _, p := range multiParents {
			reuse(p, classMulti)
		}
		for k := 0; k < blockWarm; k++ {
			reuse(k%blockSingle, classWarm)
		}
		nFresh := len(nodes)
		for k := 0; k < blockRepeat; k++ {
			orig := rng.IntN(nFresh)
			p := nodes[orig].pos
			nodes = append(nodes, node{jobItem{spec: nodes[orig].it.spec, class: classRepeat}, p + (1-p)*rng.Float64(), orig})
		}

		order := make([]int, len(nodes))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return nodes[order[a]].pos < nodes[order[b]].pos })
		at := make([]int, len(nodes))
		for i, n := range order {
			at[n] = i
		}
		seq := make([]jobItem, len(nodes))
		for i, n := range order {
			it := nodes[n].it
			it.after = -1
			if d := nodes[n].dep; d >= 0 {
				it.after = at[d]
			}
			seq[i] = it
		}
		blocks[blk] = seq
	}
	return blocks
}
