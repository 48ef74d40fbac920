package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// serviceClients is the closed loop's client count: callers such as
// `triagectl submit -wait` and `triagectl figures -j 2` each wait for
// their reply, and two of them keep the single worker busy while one
// job queues behind the other.
const serviceClients = 2

// setupProbes are extra empty-store plus populated-store starts that
// only time start-up, which takes milliseconds.
const setupProbes = 6

// inProcessChecks is how many fresh jobs are re-simulated in this
// process at a non-default seed and compared byte for byte.
const inProcessChecks = 4

// goldenJobs records the result hash of every job of the default-seed
// sequence at the length it was recorded for.
type goldenJobs struct {
	Seconds int               `json:"seconds"`
	Results map[string]string `json:"results"` // spec key -> sha256 of the encoded result
}

func goldenJobsPath(b *bench) string {
	return filepath.Join(b.root, "perfbench", "golden", "jobs.json")
}

// runService runs the service workload, or the cluster workload when
// clustered: the seeded sequence through a closed loop, a SIGTERM
// drain, a restart on the populated store with one resubmission of
// every completed spec, then start-up probes and output checks.
func runService(b *bench, clustered bool) error {
	blocks := makeSequence(b.seed, b.seconds)
	sys := newSystem(b, clustered)
	store := filepath.Join(b.work, "store")

	// Phase 1: the sequence against an empty store, one block after the
	// other, each timed on its own.
	start1, err := sys.start(store, b.trace)
	if err != nil {
		return err
	}
	var seq []jobItem
	var subs []submission
	var blockWall, blockCPU []float64
	var phase1 time.Duration
	for _, blk := range blocks {
		c0, t0 := sys.cpuSoFar(), time.Now()
		subs = append(subs, sys.closedLoop(blk, serviceClients)...)
		d := time.Since(t0)
		blockWall = append(blockWall, d.Seconds())
		blockCPU = append(blockCPU, sys.cpuSoFar()-c0)
		phase1 += d
		seq = append(seq, blk...)
	}
	var tr tracedScrape
	if b.trace {
		tr, err = scrape(sys)
		if err != nil {
			return err
		}
	}
	stop1, err := sys.stop()
	b.op(err)

	// Phase 2: restart on the populated store; every completed spec once.
	var uniq []jobItem
	seen := map[string]bool{}
	for i, it := range seq {
		if it.fresh() && subs[i].err == nil && !seen[subs[i].key] {
			seen[subs[i].key] = true
			uniq = append(uniq, jobItem{spec: it.spec, class: it.class, after: -1})
		}
	}
	start2, err := sys.start(store, b.trace)
	if err != nil {
		return err
	}
	// One client: a store hit is a few milliseconds of work, and a second
	// client would only measure the two queueing for the two CPUs.
	hits := sys.closedLoop(uniq, 1)
	var tr2 tracedScrape
	if b.trace {
		tr2, err = scrape(sys)
		if err != nil {
			return err
		}
	}
	stop2, err := sys.stop()
	b.op(err)

	setups := []float64{start1.setup + start2.setup}
	for i := 0; i < setupProbes; i++ {
		empty := filepath.Join(b.work, fmt.Sprintf("probe%d", i))
		s1, err := sys.start(empty, false)
		if err != nil {
			return err
		}
		if err := sys.stopProbe(); err != nil {
			return err
		}
		s2, err := sys.start(store, false)
		if err != nil {
			return err
		}
		if err := sys.stopProbe(); err != nil {
			return err
		}
		setups = append(setups, s1.setup+s2.setup)
	}

	checkJobs(b, seq, subs, uniq, hits)

	var fresh, hitLat []float64
	for i, it := range seq {
		if it.fresh() && subs[i].err == nil {
			fresh = append(fresh, subs[i].latencyMS())
		}
	}
	for _, h := range hits {
		if h.err == nil {
			hitLat = append(hitLat, h.latencyMS())
		}
	}
	e2e := []metric{
		{name: "wall_s", unit: "s", value: median(blockWall), note: fmt.Sprintf("closed loop of one block of %d submissions, median of %s", len(blocks[0]), fmtSamples(blockWall))},
		{name: "cpu_s", unit: "s", value: median(blockCPU), note: "user+sys of the system's processes in one block, median of " + fmtSamples(blockCPU)},
		{name: "peak_rss_mb", unit: "MB", value: max(stop1.rss, stop2.rss), note: "VmHWM summed over processes alive together"},
		{name: "setup_s", unit: "s", value: median(setups), note: "launch to ready, both starts, median of " + fmtSamples(setups)},
		// Latency and throughput exist only on this workload, and every
		// metric of the JSON line must exist on every workload, so these
		// are reported beside it.
		{name: "jobs_per_s", unit: "1/s", value: float64(len(fresh)) / phase1.Seconds(), note: fmt.Sprintf("%d fresh jobs in %.2fs", len(fresh), phase1.Seconds()), reportOnly: true},
		{name: "total_cpu_s", unit: "s", value: stop1.cpu + stop2.cpu, note: "user+sys of the system's processes, both starts", reportOnly: true},
	}
	for _, l := range []struct {
		name string
		xs   []float64
		p    float64
		what string
	}{
		{"latency_p50_ms", fresh, 50, "fresh jobs, submit to fetched result"},
		{"latency_p95_ms", fresh, 95, "fresh jobs"},
		{"hit_latency_p50_ms", hitLat, 50, "post-restart store hits"},
	} {
		q, err := Percentile(l.xs, l.p)
		if err != nil {
			b.logf("report %-34s refused: %v", l.name, err)
			continue
		}
		e2e = append(e2e, metric{name: l.name, unit: "ms", value: q.Value, reportOnly: true,
			note: fmt.Sprintf("%s, n=%d, %d beyond", l.what, q.N, q.Beyond)})
	}
	if !b.trace {
		b.metrics = append(b.metrics, e2e...)
		return nil
	}
	overhead(b, e2e)
	return tracedService(b, seq, subs, hits, append(start1.profile, start2.profile...),
		stop1.cpu+stop2.cpu, tr, tr2, sys)
}

// checkJobs checks every submission's outcome and every result's bytes:
// fresh items admitted fresh, repeats deduped, post-restart
// resubmissions served from the store, all results of one key equal;
// at the default seed equal to the golden hashes, at any other seed a
// seeded sample equal to an in-process simulation of the same spec.
func checkJobs(b *bench, seq []jobItem, subs []submission, uniq []jobItem, hits []submission) {
	first := map[string]string{}
	agree := func(r submission) error {
		if sha, ok := first[r.key]; ok && sha != r.sha {
			return fmt.Errorf("job %s: result differs between submissions", r.key)
		}
		first[r.key] = r.sha
		return nil
	}
	for i, it := range seq {
		r := subs[i]
		err := r.err
		switch {
		case err != nil:
		case it.fresh() && !r.fresh:
			err = fmt.Errorf("job %s (%s): expected a fresh admission, got cached=%v deduped=%v", r.key, it.class, r.cached, r.deduped)
		case !it.fresh() && !r.deduped:
			err = fmt.Errorf("job %s: expected a repeat to dedup", r.key)
		default:
			err = agree(r)
		}
		b.op(err)
	}
	for _, r := range hits {
		err := r.err
		switch {
		case err != nil:
		case !r.cached:
			err = fmt.Errorf("job %s: expected a store hit after restart", r.key)
		default:
			err = agree(r)
		}
		b.op(err)
	}

	golden := goldenJobsPath(b)
	if b.seed == defaultSeed {
		if b.rebaseline {
			g := goldenJobs{Seconds: b.seconds, Results: first}
			data, _ := json.MarshalIndent(g, "", "  ") // plain data
			b.op(os.WriteFile(golden, append(data, '\n'), 0o644))
			return
		}
		var g goldenJobs
		data, err := os.ReadFile(golden)
		if err == nil {
			err = json.Unmarshal(data, &g)
		}
		if err != nil {
			b.problem("golden job hashes: %v", err)
			return
		}
		if g.Seconds == b.seconds {
			for key, sha := range first {
				if g.Results[key] != sha {
					b.problem("job %s: result differs from golden/jobs.json", key)
				}
			}
			if len(first) != len(g.Results) {
				b.problem("%d job results, golden/jobs.json has %d", len(first), len(g.Results))
			}
			return
		}
		b.logf("golden/jobs.json was recorded at --seconds %d; checking a sample in-process instead", g.Seconds)
	}

	rng := rand.New(rand.NewPCG(b.seed, 0x636865636b))
	keys := make([]string, 0, len(uniq))
	for _, it := range uniq {
		keys = append(keys, it.spec.Key())
	}
	specs := map[string]experiments.RunSpec{}
	for _, it := range uniq {
		specs[it.spec.Key()] = it.spec
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, key := range keys[:min(inProcessChecks, len(keys))] {
		res, err := specs[key].Run(nil)
		if err == nil {
			sum := sha256.Sum256(experiments.EncodeResult(res))
			if hex.EncodeToString(sum[:]) != first[key] {
				err = fmt.Errorf("job %s: served result differs from an in-process run", key)
			}
		}
		b.op(err)
	}
}

// tracedScrape is what one start of triaged exposed before it stopped.
type tracedScrape struct {
	spans    map[string][]float64 // span name -> durations of fresh jobs, ms
	counters map[string]float64
	status   cluster.StatusView
	rpcs     map[string]rpcStats
}

func scrape(sys *system) (tracedScrape, error) {
	var t tracedScrape
	traces, err := sys.debugTraces()
	if err != nil {
		return t, err
	}
	t.spans = map[string][]float64{}
	for _, tr := range traces {
		fresh := false
		for _, sp := range tr.Spans {
			if sp.Name == "admit" && sp.Attrs["disposition"] == "new" {
				fresh = true
			}
		}
		if !fresh {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.End > 0 {
				t.spans[sp.Name] = append(t.spans[sp.Name], float64(sp.End-sp.Start)/1e6)
			}
		}
	}
	if t.counters, err = sys.serviceCounters(); err != nil {
		return t, err
	}
	if sys.cluster {
		if err := sys.getJSON("/cluster/v1/status", &t.status); err != nil {
			return t, err
		}
	}
	if sys.proxy != nil {
		t.rpcs = sys.proxy.snapshot()
	}
	return t, nil
}

// tracedService adds the per-layer metrics of a traced service or
// cluster run.
func tracedService(b *bench, seq []jobItem, subs, hits []submission, profiles []string, cpu float64, tr1, tr2 tracedScrape, sys *system) error {
	var fold Fold
	for _, p := range profiles {
		f, err := foldProfile(p)
		if err != nil {
			return err
		}
		fold.add(f)
	}
	addLayerCPU(b, fold, cpu, "system processes, both starts")

	// Work counts from the results: a reuse of a warm prefix restored
	// its warmup from the snapshot its parent left behind.
	var cells cellTotals
	for i, it := range seq {
		if r := subs[i]; it.fresh() && r.err == nil {
			cells.addCell(r.result, it.spec.Warmup, it.class == classWarm || (it.class == classMulti && it.after >= 0))
		}
	}
	addSimCounts(b, cells, cpu, float64(cells.stepped))

	// pct reports p50 and p95 of a span; sep joins the span's name to
	// the percentile ("_" for service.queue_wait_p50_ms, "." for
	// cluster.poll.p50_ms).
	pct := func(name, sep string, xs []float64) {
		for _, p := range []float64{50, 95} {
			label := fmt.Sprintf("%s%sp%g_ms", name, sep, p)
			q, err := Percentile(xs, p)
			if err != nil {
				b.logf("layer %-34s %14s        %v", label, "refused", err)
				continue
			}
			b.logf("layer %-34s %14.6g ms     n=%d, %d beyond", label, q.Value, q.N, q.Beyond)
		}
	}
	var submitMS, fetchMS, gaps []float64
	for _, r := range append(append([]submission(nil), subs...), hits...) {
		if r.err == nil {
			submitMS = append(submitMS, ms(r.submitted.Sub(r.submitAt)))
			fetchMS = append(fetchMS, ms(r.fetchedAt.Sub(r.doneAt)))
		}
	}
	for _, r := range subs {
		if r.err == nil && r.gap > 0 {
			gaps = append(gaps, ms(r.gap))
		}
	}
	pct("service.submit", "_", submitMS)
	pct("service.fetch", "_", fetchMS)
	pct("service.queue_wait", "_", tr1.spans["queue-wait"])
	pct("service.run", "_", tr1.spans["run"])
	pct("service.store_put", "_", tr1.spans["store-put"])
	if q, err := Percentile(gaps, 50); err == nil {
		b.logf("layer %-34s %14.6g ms     n=%d", "harness.gap_p50_ms", q.Value, q.N)
	}

	c := func(name string) float64 { return tr1.counters[name] + tr2.counters[name] }
	submissions := float64(len(subs) + len(hits))
	b.logf("layer %-34s %14.0f count", "service.deduped", c("deduped"))
	b.logf("layer %-34s %14.0f count", "service.store_hits", c("store_hits"))
	b.logf("layer %-34s %14.0f count", "service.failed", c("failed"))
	b.logf("layer %-34s %14.6g frac   (deduped + store hits) / %0.f submissions",
		"service.sim_avoided_frac", (c("deduped")+c("store_hits"))/submissions, submissions)

	if !sys.cluster {
		return nil
	}
	for _, rpc := range clusterRPCs {
		st := mergeRPC(tr1.rpcs[rpc], tr2.rpcs[rpc])
		b.logf("layer %-34s %14d count", "cluster."+rpc+".n", len(st.ms))
		pct("cluster."+rpc, ".", st.ms)
		b.logf("layer %-34s %14d count", "cluster."+rpc+".fail", st.fail)
		b.logf("layer %-34s %14.6g KB", "cluster."+rpc+".kb", float64(st.bytes)/1e3)
	}
	// Clustered, queue wait ends at dispatch and the run span covers the
	// remote execution up to the verified upload.
	if q, err := Percentile(tr1.spans["queue-wait"], 50); err == nil {
		b.logf("layer %-34s %14.6g ms     n=%d", "cluster.dispatch_wait_p50_ms", q.Value, q.N)
	}
	if q, err := Percentile(tr1.spans["run"], 50); err == nil {
		b.logf("layer %-34s %14.6g ms     n=%d", "cluster.remote_run_p50_ms", q.Value, q.N)
	}
	requeued := tr1.status.Requeued + tr2.status.Requeued
	hedged := tr1.status.Hedged + tr2.status.Hedged
	b.logf("layer %-34s %14d count", "cluster.requeued", requeued)
	b.logf("layer %-34s %14d count", "cluster.hedged", hedged)
	b.logf("layer %-34s %14d count", "cluster.upload_rejected", tr1.status.Rejected+tr2.status.Rejected)
	if requeued+hedged > 0 {
		b.logf("disturbed: the cluster requeued or hedged jobs; latency figures include re-dispatch")
	}
	return nil
}

func mergeRPC(a, b rpcStats) rpcStats {
	return rpcStats{ms: append(append([]float64(nil), a.ms...), b.ms...), fail: a.fail + b.fail, bytes: a.bytes + b.bytes}
}
