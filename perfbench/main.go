// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the real experiments, triaged and triageworker
// binaries, checks their outputs, prints a report, and ends its
// standard output with one JSON line of metrics. See README.md.
//
//	bash perfbench/bench.sh --workload figures --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// defaultSeed is the seed the golden outputs were recorded at.
const defaultSeed = 1

// bench is one invocation: its settings, the metrics it measured, and
// the operations it checked.
type bench struct {
	root     string // checkout root
	bin      string // built system binaries
	work     string // this run's scratch directory
	workload string
	seed     uint64
	seconds  int
	trace    bool

	rebaseline bool

	metrics   []metric
	lines     []string // report lines, printed before the JSON
	attempted int
	failed    int
	problems  []string
}

type metric struct {
	name, unit string
	value      float64
	note       string
	// reportOnly metrics are printed in the report but left out of the
	// JSON line, whose metrics must exist on every workload.
	reportOnly bool
}

// add records a metric for the JSON line and the report.
func (b *bench) add(name, unit string, value float64, note string) {
	b.metrics = append(b.metrics, metric{name: name, unit: unit, value: value, note: note})
}

// logf adds a report line.
func (b *bench) logf(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// op counts one checked operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
}

// problem records an output mismatch that is not tied to one operation.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func main() {
	b := &bench{}
	flag.StringVar(&b.root, "root", ".", "checkout root (holds cmd/ and .bench_build/)")
	flag.StringVar(&b.workload, "workload", "", "workload: figures, service or cluster")
	flag.Uint64Var(&b.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&b.seconds, "seconds", 30, "length of the measured phase the inputs are sized for")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&b.rebaseline, "rebaseline", false, "rewrite the golden outputs from this run (default seed only)")
	flag.Parse()
	b.trace = *traceFlag == 1

	// A run stopped from outside still stops and reaps the system's
	// processes before it exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()

	code := run(b)
	killAll()
	os.Exit(code)
}

func run(b *bench) int {
	workload := map[string]func(*bench) error{
		"figures": runFigures,
		"service": func(b *bench) error { return runService(b, false) },
		"cluster": func(b *bench) error { return runService(b, true) },
	}[b.workload]
	if workload == nil || b.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload figures|service|cluster and --seconds >= 1\n")
		return 2
	}
	if b.rebaseline && b.seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: --rebaseline records the default seed (%d) only\n", defaultSeed)
		return 2
	}
	b.bin = filepath.Join(b.root, ".bench_build", "bin")
	b.work = filepath.Join(b.root, ".bench_build", "run", fmt.Sprintf("%s-%d", b.workload, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	before := readCPUStat()
	err := workload(b)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal := stealFrac(before, readCPUStat())
	if b.trace {
		b.add("harness.steal_frac", "frac", steal, "steal share of all CPU time during the run")
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", b.workload, b.seed, b.seconds, b.trace)
	fmt.Printf("machine %s steal_frac=%.4f seed=%d\n", strings.Join(machineRecord(), " "), steal, b.seed)
	for _, l := range b.lines {
		fmt.Println(l)
	}
	out := map[string]any{}
	for _, m := range b.metrics {
		kind := "metric"
		if m.reportOnly {
			kind = "report"
		} else {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
		fmt.Printf("%s %-34s %14.6g %-6s %s\n", kind, m.name, m.value, m.unit, m.note)
	}
	if !b.trace {
		recordHistory(b)
	}
	sort.Strings(b.problems)
	for _, p := range b.problems {
		fmt.Println("MISMATCH", p)
	}
	correct := b.failed == 0 && len(b.problems) == 0
	fmt.Printf("ops attempted=%d failed=%d correct=%v\n", b.attempted, b.failed, correct)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// historyPath holds this checkout's untraced results per workload; a
// traced run compares itself against their medians to report its
// tracing overhead.
func historyPath(b *bench) string {
	return filepath.Join(b.root, ".bench_build", "history", b.workload+".jsonl")
}

func recordHistory(b *bench) {
	vals := map[string]float64{}
	for _, m := range b.metrics {
		vals[m.name] = m.value
	}
	line, _ := json.Marshal(vals) // a map of float64 always encodes
	path := historyPath(b)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: history:", err)
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: history:", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: history:", err)
	}
}

// overhead reports a traced run's end-to-end values against the medians
// of the untraced runs recorded in this checkout.
func overhead(b *bench, traced []metric) {
	data, err := os.ReadFile(historyPath(b))
	if err != nil {
		b.logf("overhead: no untraced %s runs recorded in this checkout; run --trace 0 first", b.workload)
		return
	}
	byName := map[string][]float64{}
	runs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var vals map[string]float64
		if json.Unmarshal([]byte(line), &vals) != nil {
			continue
		}
		runs++
		for k, v := range vals {
			byName[k] = append(byName[k], v)
		}
	}
	for _, m := range traced {
		xs := byName[m.name]
		if len(xs) == 0 {
			continue
		}
		med := median(xs)
		b.logf("overhead %-22s traced %12.6g %-3s untraced median %12.6g over %d runs  (%+.1f%%)",
			m.name, m.value, m.unit, med, runs, 100*(m.value/med-1))
	}
}
