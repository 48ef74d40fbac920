package main

import (
	"math"
	"testing"
)

// topSample is `go tool pprof -top -nodefraction=0 -unit=ms` output
// trimmed to one symbol of each kind the layer map must handle.
const topSample = `File: triaged
Build ID: 58a393eba09704bd60bc4d48665070aba174c27a
Type: cpu
Time: 2026-10-17 01:13:05 UTC
Duration: 1.11s, Total samples = 1000ms (90.00%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     200ms 20.00% 20.00%      210ms 21.00%  repro/internal/sim.(*hierarchy).fill
     150ms 15.00% 35.00%      150ms 15.00%  repro/internal/cache.(*Cache).Fill
     100ms 10.00% 45.00%      100ms 10.00%  repro/internal/prefetch/misb.(*Prefetcher).Train
      90ms  9.00% 54.00%       90ms  9.00%  runtime.mallocgc
      60ms  6.00% 60.00%       60ms  6.00%  repro/internal/flat.(*Map[go.shape.uint64,go.shape.struct { a int; b repro/internal/mem.Addr }]).Get
      50ms  5.00% 65.00%       50ms  5.00%  repro/internal/workload.NewChase.func1
      40ms  4.00% 69.00%       40ms  4.00%  math/rand.(*Rand).Int63
      40ms  4.00% 73.00%       80ms  8.00%  net/http.(*conn).serve
      30ms  3.00% 76.00%       30ms  3.00%  encoding/json.(*encodeState).marshal
      30ms  3.00% 79.00%       30ms  3.00%  syscall.Syscall
      30ms  3.00% 82.00%       30ms  3.00%  internal/runtime/maps.(*Map).getWithKey
      20ms  2.00% 84.00%       20ms  2.00%  aeshashbody
      20ms  2.00% 86.00%       20ms  2.00%  repro/internal/replacement.(*Hawkeye).Victim
      20ms  2.00% 88.00%       20ms  2.00%  repro/internal/core.(*Triage).Train
      20ms  2.00% 90.00%       20ms  2.00%  repro/internal/dram.(*Controller).schedule
      20ms  2.00% 92.00%       20ms  2.00%  crypto/internal/fips140/sha256.blockAVX2
      10ms  1.00% 93.00%       10ms  1.00%  repro/internal/service.(*Server).Submit
      10ms  1.00% 94.00%       10ms  1.00%  repro/internal/cluster.(*Coordinator).handlePoll
      10ms  1.00% 95.00%       10ms  1.00%  repro/internal/experiments.Go[go.shape.struct { Cores []repro/internal/sim.CoreResult }].func1
      10ms  1.00% 96.00%       10ms  1.00%  type:.eq.repro/internal/sim.CoreResult
      10ms  1.00% 97.00%       10ms  1.00%  reflect.Value.Field
      20ms  2.00% 99.00%       20ms  2.00%  fmt.(*pp).doPrintf
      10ms  1.00%   100%       10ms  1.00%  main.main
         0     0%   100%       90ms  9.00%  runtime.gcBgMarkWorker
`

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/prefetch/misb.(*Prefetcher).Train":               "prefetch",
		"repro/internal/prefetch.(*Queue).Push":                          "prefetch",
		"runtime.mallocgc":                                               "runtime",
		"net/http.(*conn).serve":                                         "http",
		"net.(*conn).Read":                                               "http",
		"repro/internal/flat.(*Map[go.shape.uint64]).Get":                "flat",
		"repro/internal/sim.(*Machine).phase":                            "sim",
		"repro/internal/mem.Addr.Line":                                   "sim",
		"math/rand/v2.(*PCG).Uint64":                                     "workload",
		"repro/internal/trace.(*Reader).Next":                            "workload",
		"encoding/json.Marshal":                                          "json",
		"strconv.AppendFloat":                                            "json",
		"syscall.Syscall6":                                               "vfs",
		"repro/internal/vfs.OS.OpenFile":                                 "vfs",
		"internal/poll.(*FD).Fsync":                                      "vfs",
		"hash/crc32.ieeeCLMUL":                                           "vfs",
		"crypto/internal/fips140/sha256.blockAVX2":                       "cluster",
		"repro/internal/cluster.(*Worker).post":                          "cluster",
		"repro/internal/service.(*Server).runJob":                        "service",
		"repro/internal/telemetry.(*JobFeed).Finish":                     "telemetry",
		"internal/runtime/maps.(*Map).getWithKey":                        "runtime",
		"sync/atomic.(*Int64).Add":                                       "runtime",
		"aeshashbody":                                                    "runtime",
		"type:.eq.repro/internal/sim.CoreResult":                         "runtime",
		"repro/internal/experiments.Go[go.shape.struct { a int }].func1": "experiments",
		"fmt.(*pp).doPrintf":                                             "",
		"main.main":                                                      "",
		"repro/internal/simx.F":                                          "",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	f, err := foldTop(topSample)
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalMS != 1000 {
		t.Fatalf("total %gms, want 1000", f.TotalMS)
	}
	want := map[string]float64{
		"sim": 200, "cache": 150, "prefetch": 100, "runtime": 90 + 30 + 20 + 10 + 10,
		"flat": 60, "workload": 50 + 40, "http": 40, "json": 30, "vfs": 30,
		"replacement": 20, "core": 20, "dram": 20, "cluster": 20 + 10,
		"service": 10, "experiments": 10,
	}
	for l, ms := range want {
		if f.LayerMS[l] != ms {
			t.Errorf("layer %s = %gms, want %g", l, f.LayerMS[l], ms)
		}
	}
	if f.UnmappedMS != 30 || f.Unmapped["fmt.(*pp).doPrintf"] != 20 || f.Unmapped["main.main"] != 10 {
		t.Errorf("unmapped %gms %v, want 30ms in fmt and main", f.UnmappedMS, f.Unmapped)
	}
	if got := f.unmappedFrac(); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("unmapped share %g, want 0.03", got)
	}
	if got := f.share("cache"); got != 0.15 {
		t.Errorf("cache share %g, want 0.15", got)
	}
}

func TestFoldTopRejectsNonTable(t *testing.T) {
	if _, err := foldTop("pprof: no samples\n"); err == nil {
		t.Error("output without a -top table accepted")
	}
}

func TestParseMS(t *testing.T) {
	for s, want := range map[string]float64{"120ms": 120, "0": 0, "1.5s": 1500, "2mins": 120000, "500us": 0.5} {
		if got, err := parseMS(s); err != nil || got != want {
			t.Errorf("parseMS(%q) = %g, %v; want %g", s, got, err, want)
		}
	}
}
