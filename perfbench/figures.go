package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// figIDs are the figures the figures workload regenerates: three
// single-core figures (irregular, regular and traffic) that load the
// cache, replacement, Triage and prefetcher layers, and the 2-16 core
// shared-LLC study that loads the detailed DRAM model and the sustain
// tail.
var figIDs = []string{"fig05", "fig09", "fig11", "fig17"}

// The figures run at reduced instruction windows per core. They are
// fixed, not derived from --seconds, so the golden tables hold for any
// run length.
const (
	figWarmup       = 80_000
	figMeasure      = 80_000
	figMultiWarmup  = 40_000
	figMultiMeasure = 40_000
	figMixes        = 2
)

// figRepSeconds is roughly how long one figure process takes on a
// 2-core Xeon VM; --seconds buys that many repetitions (three at 30 s,
// which keeps a run near 35 s).
const figRepSeconds = 10

// figSetupProbes are extra launches that only time start-up.
const figSetupProbes = 7

// bannerWriter timestamps the first stdout line of the experiments
// process ("running N experiments on W workers..."), which it prints
// once its set-up is done, and passes all output on to w.
type bannerWriter struct {
	w     io.Writer
	first []byte
	at    time.Time
	seen  chan struct{}
	once  sync.Once
}

func newBannerWriter(w io.Writer) *bannerWriter {
	return &bannerWriter{w: w, seen: make(chan struct{})}
}

func (bw *bannerWriter) Write(p []byte) (int, error) {
	select {
	case <-bw.seen:
	default:
		bw.first = append(bw.first, p...)
		if bytes.IndexByte(bw.first, '\n') >= 0 {
			bw.once.Do(func() {
				bw.at = time.Now()
				close(bw.seen)
			})
		}
	}
	return bw.w.Write(p)
}

// figSeed maps the benchmark seed to the experiments -seed flag, which
// treats 0 as "use the default".
func figSeed(seed uint64) string { return strconv.FormatUint(seed%(1<<62)+1, 10) }

// figRep is one completed figure process.
type figRep struct {
	dir            string // holds csv/, cpu.prof and ckpt/
	wall, cpu, rss float64
	simulations    int     // from the closing "total:" line
	stepped        float64 // instructions every simulation stepped, from the same line
}

func runFigures(b *bench) error {
	reps := int(math.Round(float64(b.seconds) / figRepSeconds))
	if reps < 1 {
		reps = 1
	}
	exe := filepath.Join(b.bin, "experiments")
	args := func(dir string) []string {
		a := []string{"-fig", strings.Join(figIDs, ","), "-j", "1", "-seed", figSeed(b.seed),
			"-warmup", fmt.Sprint(figWarmup), "-measure", fmt.Sprint(figMeasure),
			"-mwarmup", fmt.Sprint(figMultiWarmup), "-mmeasure", fmt.Sprint(figMultiMeasure),
			"-mixes", fmt.Sprint(figMixes), "-csv", filepath.Join(dir, "csv")}
		if b.trace {
			a = append(a, "-cpuprofile", filepath.Join(dir, "cpu.prof"), "-resume", filepath.Join(dir, "ckpt"))
		}
		return a
	}

	var setups []float64
	var runs []figRep
	for r := 0; r < reps; r++ {
		dir := filepath.Join(b.work, fmt.Sprintf("rep%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dir, "stdout.txt"))
		if err != nil {
			return err
		}
		bw := newBannerWriter(out)
		p, err := startProc("experiments", exe, filepath.Join(dir, "stderr.txt"), bw, args(dir)...)
		if err != nil {
			out.Close()
			return err
		}
		werr := p.wait(170 * time.Second)
		end := time.Now()
		out.Close()
		rep := figRep{dir: dir, wall: end.Sub(p.start).Seconds(), cpu: p.cpuSeconds(), rss: p.peakRSSMB()}
		select {
		case <-bw.seen:
			setups = append(setups, bw.at.Sub(p.start).Seconds())
		default:
		}
		if werr != nil {
			b.op(fmt.Errorf("experiments repetition %d: %v\n%s", r, werr, logTail(filepath.Join(dir, "stderr.txt"), 20)))
			continue
		}
		if out, err := os.ReadFile(filepath.Join(dir, "stdout.txt")); err == nil {
			if i := bytes.LastIndex(out, []byte("total: ")); i >= 0 {
				var secs, rate float64
				// A missing or changed line leaves the counts at zero.
				_, _ = fmt.Sscanf(string(out[i:]), "total: %fs (%d simulations, %fM sim-instr/s)", &secs, &rep.simulations, &rate)
				// Both numbers are rounded (0.1 s, 0.01M/s): the product
				// is within about 0.5% of the instructions stepped.
				rep.stepped = secs * rate * 1e6
			}
		}
		runs = append(runs, rep)
		checkFigureTables(b, r, filepath.Join(dir, "csv"), filepath.Join(runs[0].dir, "csv"))
	}
	if len(runs) == 0 {
		return fmt.Errorf("no figure repetition completed")
	}

	// Start-up alone is milliseconds, so it is timed on extra launches
	// that are stopped as soon as the banner appears.
	for i := 0; i < figSetupProbes; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("probe%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		bw := newBannerWriter(io.Discard)
		p, err := startProc("experiments", exe, filepath.Join(dir, "stderr.txt"), bw, args(dir)...)
		if err != nil {
			return err
		}
		select {
		case <-bw.seen:
			setups = append(setups, bw.at.Sub(p.start).Seconds())
		case <-time.After(30 * time.Second):
		}
		_ = p.stop(syscall.SIGKILL, 10*time.Second) // killed on purpose
	}
	if len(setups) == 0 {
		return fmt.Errorf("experiments never printed its start banner")
	}

	var walls, cpus, rsss []float64
	for _, r := range runs {
		walls, cpus, rsss = append(walls, r.wall), append(cpus, r.cpu), append(rsss, r.rss)
	}
	e2e := []metric{
		{name: "wall_s", unit: "s", value: median(walls), note: "launch to exit, median of " + fmtSamples(walls)},
		{name: "cpu_s", unit: "s", value: median(cpus), note: "user+sys of the experiments process, median of " + fmtSamples(cpus)},
		{name: "peak_rss_mb", unit: "MB", value: median(rsss), note: "VmHWM of the experiments process, median of " + fmtSamples(rsss)},
		{name: "setup_s", unit: "s", value: median(setups), note: "launch to banner, median of " + fmtSamples(setups)},
	}
	if !b.trace {
		b.metrics = append(b.metrics, e2e...)
		return nil
	}
	overhead(b, e2e)

	var fold Fold
	var cpu, stepped float64
	var cells cellTotals
	for _, r := range runs {
		f, err := foldProfile(filepath.Join(r.dir, "cpu.prof"))
		if err != nil {
			return err
		}
		fold.add(f)
		cpu += r.cpu
		stepped += r.stepped
		c, err := readCheckpointCells(filepath.Join(r.dir, "ckpt"))
		if err != nil {
			return err
		}
		cells = c // identical every repetition
	}
	n := float64(len(runs))
	addLayerCPU(b, fold, cpu/n, "per figure run")
	// The checkpoint holds only the cached single-core cells; fig17's
	// multi-core cells and the one-off single-core runs are simulated
	// but never stored, so the work counts leave them out, and CPU per
	// instruction takes every simulation's count from the total line.
	addSimCounts(b, cells, cpu/n, stepped/n)
	b.logf("layer %-34s %14d count  simulations the run reported; the counts above cover the %d the checkpoint stored",
		"sim.simulations", runs[0].simulations, cells.cells)
	return nil
}

// checkFigureTables checks one repetition's CSVs: every figure present
// with no failed cell, equal to the golden tables at the default seed,
// and equal to the first repetition's at any seed.
func checkFigureTables(b *bench, rep int, dir, firstDir string) {
	golden := filepath.Join(b.root, "perfbench", "golden", "figures")
	for _, id := range figIDs {
		got, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			b.op(fmt.Errorf("figure %s repetition %d: %v", id, rep, err))
			continue
		}
		switch {
		case bytes.Contains(got, []byte("FAILED cell")):
			err = fmt.Errorf("figure %s repetition %d carries error rows", id, rep)
		case b.seed == defaultSeed && b.rebaseline && rep == 0:
			if err = os.MkdirAll(golden, 0o755); err == nil {
				err = os.WriteFile(filepath.Join(golden, id+".csv"), got, 0o644)
			}
		case b.seed == defaultSeed:
			want, rerr := os.ReadFile(filepath.Join(golden, id+".csv"))
			if rerr != nil || !bytes.Equal(got, want) {
				err = fmt.Errorf("figure %s repetition %d differs from golden/figures/%s.csv", id, rep, id)
			}
		default:
			first, rerr := os.ReadFile(filepath.Join(firstDir, id+".csv"))
			if rerr != nil || !bytes.Equal(got, first) {
				err = fmt.Errorf("figure %s repetition %d differs from repetition 0", id, rep)
			}
		}
		b.op(err)
	}
}
