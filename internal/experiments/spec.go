package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/bo"
	"repro/internal/prefetch/domino"
	"repro/internal/prefetch/ghb"
	"repro/internal/prefetch/hybrid"
	"repro/internal/prefetch/isb"
	"repro/internal/prefetch/markov"
	"repro/internal/prefetch/misb"
	"repro/internal/prefetch/nextline"
	"repro/internal/prefetch/sms"
	"repro/internal/prefetch/stms"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunSpec describes one ad-hoc simulation: a benchmark under one named
// prefetcher configuration on a Table 1 machine, in rate mode when
// Cores > 1 (N copies, one per core). It is the cmd/triagesim shape
// promoted to a first-class, JSON-serializable job spec so the
// simulation service, triagesim, and triagectl all run the exact same
// machine for the same spec — byte-identical results by construction.
type RunSpec struct {
	Bench   string `json:"bench"`
	PF      string `json:"pf"`
	Cores   int    `json:"cores,omitempty"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	Seed    uint64 `json:"seed,omitempty"`
	Degree  int    `json:"degree,omitempty"`
	// Trace, when non-empty, replays a materialized corpus trace
	// ("sha256:<hex>", see trace.Corpus) instead of the Bench
	// generator: each core streams the same trace in an endless loop,
	// data addresses offset per core. Bench becomes a display label
	// (defaulted from the hash); Seed does not perturb a replay but
	// remains part of the identity for key-shape uniformity.
	Trace string `json:"trace,omitempty"`
	// Mix, when non-empty, names one workload per core: each entry is
	// either a generator benchmark name or a materialized corpus trace
	// id ("sha256:<hex>"), so a multi-core job can replay distinct
	// captured traces side by side (or mix captures with generators).
	// Cores is derived from len(Mix); Trace and Mix are mutually
	// exclusive. Every core gets the disjoint address base
	// (core+1)<<40; generator entries take the same per-core seed
	// offsets as rate mode, so a mix of N copies of one benchmark is
	// byte-identical to the plain Cores=N spec.
	Mix []string `json:"mix,omitempty"`
	// SampleEvery, when non-zero, attaches a telemetry sampler at this
	// retired-instruction interval; the sampled series is part of the
	// job's result (and of its identity — see Key).
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// CheckEvery enables the simulator's structural invariant sweep
	// (debug mode). It does not affect results and is excluded from Key.
	CheckEvery uint64 `json:"check_every,omitempty"`
}

// Normalize fills the defaulted fields so that equivalent specs
// compare (and hash) equal: an empty prefetcher means "none",
// core/degree counts below one are clamped to one, a trace id is
// canonicalized (bare hex gains its sha256: prefix), and a trace-
// backed spec with no bench label gets one derived from the hash.
func (s *RunSpec) Normalize() {
	if s.PF == "" {
		s.PF = "none"
	}
	if s.Cores < 1 {
		s.Cores = 1
	}
	if s.Degree < 1 {
		s.Degree = 1
	}
	if s.Trace != "" {
		if canon, err := trace.CanonicalTraceID(s.Trace); err == nil {
			s.Trace = canon
		}
		if s.Bench == "" {
			s.Bench = traceLabel(s.Trace)
		}
	}
	if len(s.Mix) > 0 {
		// Mix entries pin the core count; trace-id entries canonicalize
		// so equivalent spellings (bare hex vs sha256:-prefixed) hash to
		// the same content key.
		s.Cores = len(s.Mix)
		for i, entry := range s.Mix {
			if canon, err := trace.CanonicalTraceID(entry); err == nil {
				s.Mix[i] = canon
			}
		}
		if s.Bench == "" {
			labels := make([]string, len(s.Mix))
			for i, entry := range s.Mix {
				if strings.HasPrefix(entry, "sha256:") {
					labels[i] = traceLabel(entry)
				} else {
					labels[i] = entry
				}
			}
			s.Bench = strings.Join(labels, "+")
		}
	}
}

// traceLabel derives a short display label from a canonical trace id.
func traceLabel(id string) string {
	hexPart := strings.TrimPrefix(id, "sha256:")
	if len(hexPart) > 12 {
		hexPart = hexPart[:12]
	}
	return "trace-" + hexPart
}

// Validate reports the first problem that would keep the spec from
// simulating: an unknown benchmark or prefetcher, a trace id that is
// malformed or missing from the configured corpus, or an empty
// measurement window. Call Normalize first.
func (s RunSpec) Validate() error {
	switch {
	case len(s.Mix) > 0:
		if s.Trace != "" {
			return fmt.Errorf("spec sets both trace and mix; pick one")
		}
		for i, entry := range s.Mix {
			if strings.HasPrefix(entry, "sha256:") {
				if _, err := resolveTrace(entry); err != nil {
					return fmt.Errorf("mix core %d: %w", i, err)
				}
			} else if _, ok := workload.ByName(entry); !ok {
				return fmt.Errorf("mix core %d: unknown benchmark %q", i, entry)
			}
		}
	case s.Trace != "":
		if _, err := resolveTrace(s.Trace); err != nil {
			return err
		}
	default:
		if _, ok := workload.ByName(s.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", s.Bench)
		}
	}
	if _, err := BuildPrefetcher(s.PF, config.Default(1), 1); err != nil {
		return err
	}
	if s.Measure == 0 {
		return fmt.Errorf("spec %s/%s: measure window is zero", s.Bench, s.PF)
	}
	return nil
}

// Key is the canonical identity of the spec's result: every field that
// changes the simulation's outcome (or its sampled series) is folded
// in; debug-only knobs (CheckEvery) are not. Two specs with equal keys
// produce byte-identical results, which is what makes the service's
// result store content-addressed.
func (s RunSpec) Key() string {
	bench := s.Bench
	if s.Trace != "" {
		// A trace-backed run's workload identity is the content hash,
		// not the display label: two submissions of the same trace under
		// different labels dedup onto one simulation.
		bench = s.Trace
	}
	if len(s.Mix) > 0 {
		// A mix's identity is its per-core composition — canonical
		// trace hashes and benchmark names, never display labels.
		bench = strings.Join(s.Mix, "+")
	}
	k := fmt.Sprintf("%s/%s/x%d/w%d/m%d/s%d/d%d",
		bench, s.PF, s.Cores, s.Warmup, s.Measure, s.Seed, s.Degree)
	if s.SampleEvery > 0 {
		k += fmt.Sprintf("/t%d", s.SampleEvery)
	}
	return k
}

// Run executes the simulation. The machine construction mirrors
// cmd/triagesim exactly (per-core seeds offset by 104729, disjoint
// address spaces via (core+1)<<40), so a service job and a direct
// triagesim run of the same spec return identical results. hooks may
// be nil. Construction problems return an error; a watchdog abort or
// invariant panic propagates as a panic for the caller's Guarded/
// recover wrapper, like every other pooled run.
func (s RunSpec) Run(hooks *telemetry.Hooks) (sim.Result, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return sim.Result{}, err
	}
	var spec workload.Spec
	warmBench := s.Bench
	if s.Trace != "" {
		id, err := resolveTrace(s.Trace)
		if err != nil {
			return sim.Result{}, err
		}
		// Replay: every core streams the trace from disk in a loop.
		// Core 0 replays raw addresses; higher cores offset by c<<40 for
		// the disjoint address spaces rate mode assumes. The content
		// hash — not the display label — names the warm prefix.
		spec = workload.Replay(s.Bench, TraceCorpus(), id, workload.Server)
		warmBench = id
	} else if len(s.Mix) > 0 {
		// The composition — canonical ids and names, '+'-joined — names
		// the warm prefix, mirroring how figure mixes key snapshots.
		warmBench = strings.Join(s.Mix, "+")
	} else {
		spec, _ = workload.ByName(s.Bench)
	}
	m := config.Default(s.Cores)
	ws := make([]trace.Reader, s.Cores)
	pfs := make([]prefetch.Prefetcher, s.Cores)
	for c := 0; c < s.Cores; c++ {
		switch {
		case len(s.Mix) > 0:
			// Per-core workloads share the uniform disjoint base
			// (core+1)<<40 whatever their kind, so a captured trace can
			// sit next to a generator without address-space overlap.
			// Generator entries take the rate-mode seed offsets, making a
			// mix of N copies of one benchmark byte-identical to the
			// plain Cores=N spec.
			entry := s.Mix[c]
			if strings.HasPrefix(entry, "sha256:") {
				id, err := resolveTrace(entry)
				if err != nil {
					return sim.Result{}, err
				}
				sp := workload.Replay(traceLabel(id), TraceCorpus(), id, workload.Server)
				ws[c] = sp.New(0, mem.Addr(c+1)<<40)
			} else {
				sp, ok := workload.ByName(entry)
				if !ok {
					return sim.Result{}, fmt.Errorf("mix core %d: unknown benchmark %q", c, entry)
				}
				ws[c] = sp.New(s.Seed+uint64(c)*104729, mem.Addr(c+1)<<40)
			}
		case s.Trace != "":
			ws[c] = spec.New(0, mem.Addr(c)<<40)
		default:
			ws[c] = spec.New(s.Seed+uint64(c)*104729, mem.Addr(c+1)<<40)
		}
		p, err := BuildPrefetcher(s.PF, m, s.Degree)
		if err != nil {
			return sim.Result{}, err
		}
		pfs[c] = p
	}
	// BuildPrefetcher resolves PF names canonically process-wide, and
	// Degree parameterizes the build, so bench+pf+degree+cores+warmup+
	// seed pins the complete warm prefix for snapshot reuse (the trace
	// content hash stands in for bench on replays). The simulator
	// independently re-checks the machine-shape half of the key
	// (sim.Options.WarmKey), so a collision degrades to a cold warmup
	// instead of a wrong restore.
	machine, err := sim.New(sim.Options{
		Machine:             m,
		Workloads:           ws,
		Prefetchers:         pfs,
		WarmupInstructions:  s.Warmup,
		MeasureInstructions: s.Measure,
		Telemetry:           hooks,
		CheckEvery:          s.CheckEvery,
		WarmKey: fmt.Sprintf("spec/%s/%s/d%d/x%d/w%d/s%d",
			warmBench, s.PF, s.Degree, s.Cores, s.Warmup, s.Seed),
	})
	if err != nil {
		return sim.Result{}, err
	}
	return machine.Run(), nil
}

// BuildPrefetcher constructs the named prefetcher configuration for one
// core of machine m: none, stride-only, nextline, ghb, markov, bo, sms,
// stms, domino, isb, misb, triage-512k, triage-1m, triage-dyn,
// triage-dynutil, triage-unlimited, or a '+'-joined hybrid such as
// triage+bo ("triage" in a hybrid means triage-dyn). Every caller that
// names prefetchers on a command line or over the wire resolves them
// here, so the names cannot drift between tools.
func BuildPrefetcher(name string, m config.Machine, degree int) (prefetch.Prefetcher, error) {
	ticks := llcTicks(m)
	mk := func(n string) (prefetch.Prefetcher, error) {
		switch n {
		case "none", "stride-only":
			return nil, nil
		case "bo":
			return bo.New(), nil
		case "sms":
			return sms.New(), nil
		case "stms":
			return stms.New(), nil
		case "domino":
			return domino.New(), nil
		case "misb":
			return misb.New(), nil
		case "isb":
			return isb.New(), nil
		case "markov":
			return markov.New(1 << 20), nil
		case "ghb":
			return ghb.New(512), nil
		case "nextline":
			return nextline.New(1), nil
		case "triage-512k":
			return core.New(core.Config{Mode: core.Static, StaticBytes: 512 << 10, LLCLatencyTicks: ticks}), nil
		case "triage-1m":
			return core.New(core.Config{Mode: core.Static, StaticBytes: 1 << 20, LLCLatencyTicks: ticks}), nil
		case "triage-dyn":
			return core.New(core.Config{Mode: core.Dynamic, LLCLatencyTicks: ticks}), nil
		case "triage-dynutil":
			return core.New(core.Config{Mode: core.DynamicUtility, LLCLatencyTicks: ticks}), nil
		case "triage-unlimited":
			return core.New(core.Config{Mode: core.Unlimited, LLCLatencyTicks: ticks}), nil
		default:
			return nil, fmt.Errorf("unknown prefetcher %q", n)
		}
	}
	if strings.Contains(name, "+") {
		parts := strings.Split(name, "+")
		var ps []prefetch.Prefetcher
		for _, part := range parts {
			if part == "triage" {
				part = "triage-dyn"
			}
			p, err := mk(part)
			if err != nil {
				return nil, err
			}
			if p == nil {
				return nil, fmt.Errorf("cannot compose %q", part)
			}
			ps = append(ps, p)
		}
		return hybrid.New(ps...), nil
	}
	p, err := mk(name)
	if err != nil {
		return nil, err
	}
	if p != nil && degree > 1 {
		if ds, ok := p.(prefetch.DegreeSetter); ok {
			ds.SetDegree(degree)
		}
	}
	return p, nil
}

// EncodeResult renders a sim.Result as indented JSON with a trailing
// newline — the one wire/disk encoding shared by triagesim -json, the
// service result store, and triagectl, so "byte-identical results"
// is checkable with cmp(1). sim.Result round-trips exactly through
// JSON (uint64s parse exactly, float64 uses shortest-round-trip
// encoding), so decode+re-encode is byte-stable.
func EncodeResult(res sim.Result) []byte {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		// sim.Result is plain exported numeric data; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: encoding sim.Result: %v", err))
	}
	return append(b, '\n')
}

// fingerprintOf hashes the canonical JSON of v.
func fingerprintOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("experiments: fingerprint: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ConfigFingerprint identifies the simulated universe results belong
// to: the machine configuration (Table 1 parameters) plus the workload
// suite identity. A checkpoint or result store stamped with it refuses
// to serve results simulated under different parameters.
func ConfigFingerprint(m config.Machine) string {
	return fingerprintOf(struct {
		Machine   config.Machine `json:"machine"`
		Workloads []string       `json:"workloads"`
	}{m, workload.Names()})
}

// Fingerprint extends ConfigFingerprint with the experiment-scale
// parameters that shape results (instruction windows, mix count, seed,
// sampling interval). Debug/fault knobs (Deadline, Stall, Retries,
// CheckEvery, FaultHook) change nothing about a successful run's
// output and are excluded.
func (p Params) Fingerprint(m config.Machine) string {
	return fingerprintOf(struct {
		Machine      config.Machine `json:"machine"`
		Workloads    []string       `json:"workloads"`
		Warmup       uint64         `json:"warmup"`
		Measure      uint64         `json:"measure"`
		MultiWarmup  uint64         `json:"multi_warmup"`
		MultiMeasure uint64         `json:"multi_measure"`
		Mixes        int            `json:"mixes"`
		Seed         uint64         `json:"seed"`
		SampleEvery  uint64         `json:"sample_every"`
	}{m, workload.Names(), p.Warmup, p.Measure, p.MultiWarmup, p.MultiMeasure, p.Mixes, p.Seed, p.SampleEvery})
}
