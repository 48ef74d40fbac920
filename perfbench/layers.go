package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// layerRules maps a sampled symbol's package path to the layer it is
// charged to. A rule matches its path and every package below it; the
// longest matching path wins. Packages no rule names stay unmapped and
// are reported as such.
var layerRules = map[string]string{
	// The simulator's own layers.
	"repro/internal/sim":         "sim",
	"repro/internal/mem":         "sim",
	"repro/internal/config":      "sim",
	"repro/internal/cache":       "cache",
	"repro/internal/replacement": "replacement",
	"repro/internal/core":        "core",
	"repro/internal/dram":        "dram",
	"repro/internal/flat":        "flat",
	"repro/internal/prefetch":    "prefetch",
	"repro/internal/experiments": "experiments",
	"repro/internal/cliutil":     "experiments",
	"repro/internal/benchfile":   "experiments",
	// Input generation: the generators, trace decoding and their RNG.
	"repro/internal/workload": "workload",
	"repro/internal/trace":    "workload",
	"math/rand":               "workload",
	// Job feeds, samplers, spans and histograms.
	"repro/internal/telemetry": "telemetry",
	"repro/internal/obs":       "telemetry",
	// The service, the cluster RPC layer and upload verification.
	"repro/internal/service":  "service",
	"repro/internal/cluster":  "cluster",
	"repro/internal/netfault": "cluster",
	"crypto":                  "cluster",
	// Transport and encoding.
	"net":                        "http",
	"bufio":                      "http",
	"mime":                       "http",
	"vendor/golang.org/x/net":    "http",
	"vendor/golang.org/x/text":   "http",
	"encoding":                   "json",
	"strconv":                    "json",
	"unicode":                    "json",
	"repro/internal/vfs":         "vfs",
	"os":                         "vfs",
	"syscall":                    "vfs",
	"internal/poll":              "vfs",
	"internal/syscall":           "vfs",
	"io/fs":                      "vfs",
	"path/filepath":              "vfs",
	"hash/crc32":                 "vfs",
	"runtime":                    "runtime",
	"internal/runtime":           "runtime",
	"internal/abi":               "runtime",
	"internal/bytealg":           "runtime",
	"internal/sync":              "runtime",
	"internal/godebug":           "runtime",
	"internal/chacha8rand":       "runtime",
	"sync":                       "runtime",
	"reflect":                    "runtime",
	"time":                       "runtime",
	"context":                    "runtime",
	"vendor/golang.org/x/crypto": "cluster",
}

// symbolPackage returns the import path of the package that defines a
// symbol as pprof prints it, e.g. "repro/internal/prefetch/misb" for
// "repro/internal/prefetch/misb.(*Prefetcher).Train". Type parameters
// and receivers may themselves contain paths and dots, so only the
// part before the first '[' or '(' is searched. Assembly routines and
// compiler-generated functions carry no package and belong to the Go
// runtime.
func symbolPackage(sym string) string {
	if strings.HasPrefix(sym, "type:") || strings.HasPrefix(sym, "go:") {
		return "runtime"
	}
	head := sym
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		if slash < 0 && !strings.ContainsAny(sym, "<> ") {
			return "runtime"
		}
		return ""
	}
	return head[:slash+1+dot]
}

// layerOf maps a symbol to its layer, or "" when no rule covers its
// package.
func layerOf(sym string) string {
	pkg := symbolPackage(sym)
	for p := pkg; p != ""; {
		if l, ok := layerRules[p]; ok {
			return l
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			break
		}
		p = p[:i]
	}
	return ""
}

// Fold is a CPU profile folded by layer.
type Fold struct {
	TotalMS    float64
	LayerMS    map[string]float64
	UnmappedMS float64
	// Unmapped holds the flat time of each unmapped symbol.
	Unmapped map[string]float64
}

// add accumulates another fold (profiles of several processes or
// repetitions of one workload).
func (f *Fold) add(g Fold) {
	if f.LayerMS == nil {
		f.LayerMS = map[string]float64{}
		f.Unmapped = map[string]float64{}
	}
	f.TotalMS += g.TotalMS
	f.UnmappedMS += g.UnmappedMS
	for k, v := range g.LayerMS {
		f.LayerMS[k] += v
	}
	for k, v := range g.Unmapped {
		f.Unmapped[k] += v
	}
}

// share is a layer's fraction of the profiled samples.
func (f Fold) share(layer string) float64 {
	if f.TotalMS == 0 {
		return 0
	}
	return f.LayerMS[layer] / f.TotalMS
}

// unmappedFrac is the fraction of profiled samples no rule covers.
func (f Fold) unmappedFrac() float64 {
	if f.TotalMS == 0 {
		return 0
	}
	return f.UnmappedMS / f.TotalMS
}

// topUnmapped lists the heaviest unmapped symbols, for the report.
func (f Fold) topUnmapped(n int) string {
	type kv struct {
		k string
		v float64
	}
	var xs []kv
	for k, v := range f.Unmapped {
		if v > 0 {
			xs = append(xs, kv{k, v})
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v > xs[j].v || xs[i].v == xs[j].v && xs[i].k < xs[j].k })
	var parts []string
	for i, x := range xs {
		if i == n {
			break
		}
		parts = append(parts, fmt.Sprintf("%s=%.0fms", x.k, x.v))
	}
	return strings.Join(parts, " ")
}

// foldTop folds the text of `go tool pprof -top -unit=ms` by layer,
// using each symbol's flat time.
func foldTop(text string) (Fold, error) {
	f := Fold{LayerMS: map[string]float64{}, Unmapped: map[string]float64{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := parseMS(fields[0])
		if err != nil {
			return Fold{}, fmt.Errorf("pprof line %q: %w", line, err)
		}
		// The symbol is the rest of the line after the five numeric
		// columns; generic instantiations may contain spaces.
		sym := line
		for i := 0; i < 5; i++ {
			sym = strings.TrimLeft(sym, " ")
			sym = sym[strings.IndexByte(sym, ' '):]
		}
		sym = strings.TrimSpace(sym)
		f.TotalMS += ms
		if l := layerOf(sym); l != "" {
			f.LayerMS[l] += ms
		} else {
			f.UnmappedMS += ms
			f.Unmapped[sym] += ms
		}
	}
	if err := sc.Err(); err != nil {
		return Fold{}, err
	}
	if !inTable {
		return Fold{}, fmt.Errorf("no pprof -top table in output")
	}
	return f, nil
}

// parseMS reads a pprof flat value printed with -unit=ms ("120ms",
// "0"), tolerating the larger units pprof may still choose.
func parseMS(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60e3}, {"hrs", 3600e3}, {"ms", 1}, {"us", 1e-3}, {"µs", 1e-3}, {"ns", 1e-6}, {"s", 1e3}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// foldProfile runs `go tool pprof -top` over a CPU profile file and
// folds the result.
func foldProfile(path string) (Fold, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0",
		"-nodecount=1000000", "-unit=ms", "-symbolize=none", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return Fold{}, fmt.Errorf("go tool pprof %s: %v: %s", path, err, ee.Stderr)
		}
		return Fold{}, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return foldTop(string(out))
}
