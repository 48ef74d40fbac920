package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/prefetch/hybrid"
	"repro/internal/telemetry"
)

func TestBuildPrefetcherKnownNames(t *testing.T) {
	m := config.Default(1)
	names := []string{
		"bo", "sms", "stms", "domino", "misb", "isb", "markov", "ghb",
		"nextline", "triage-512k", "triage-1m", "triage-dyn",
		"triage-dynutil", "triage-unlimited",
	}
	for _, n := range names {
		p, err := BuildPrefetcher(n, m, 1)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if p == nil {
			t.Errorf("%s: nil prefetcher", n)
		}
	}
}

func TestBuildPrefetcherNone(t *testing.T) {
	m := config.Default(1)
	for _, n := range []string{"none", "stride-only"} {
		p, err := BuildPrefetcher(n, m, 1)
		if err != nil || p != nil {
			t.Errorf("%s: p=%v err=%v, want nil,nil", n, p, err)
		}
	}
}

func TestBuildPrefetcherUnknown(t *testing.T) {
	m := config.Default(1)
	if _, err := BuildPrefetcher("bogus", m, 1); err == nil {
		t.Error("unknown prefetcher accepted")
	}
}

func TestBuildPrefetcherHybrid(t *testing.T) {
	m := config.Default(1)
	p, err := BuildPrefetcher("triage+bo", m, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := p.(*hybrid.Prefetcher)
	if !ok {
		t.Fatalf("got %T, want hybrid", p)
	}
	if len(h.Parts()) != 2 {
		t.Errorf("hybrid has %d parts", len(h.Parts()))
	}
	if _, err := BuildPrefetcher("bo+none", m, 1); err == nil {
		t.Error("hybrid with non-composable part accepted")
	}
}

func TestBuildPrefetcherDegree(t *testing.T) {
	m := config.Default(1)
	p, err := BuildPrefetcher("bo", m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(prefetch.DegreeSetter); !ok {
		t.Error("bo does not expose DegreeSetter")
	}
}

func TestRunSpecNormalizeAndKey(t *testing.T) {
	a := RunSpec{Bench: "mcf", Warmup: 1, Measure: 2}
	a.Normalize()
	if a.PF != "none" || a.Cores != 1 || a.Degree != 1 {
		t.Fatalf("normalize left %+v", a)
	}
	b := RunSpec{Bench: "mcf", PF: "none", Cores: 1, Warmup: 1, Measure: 2, Degree: 1}
	if a.Key() != b.Key() {
		t.Errorf("equivalent specs key differently: %q vs %q", a.Key(), b.Key())
	}
	// Sampling is part of the identity (the stored series differs)...
	c := b
	c.SampleEvery = 1000
	if c.Key() == b.Key() {
		t.Error("SampleEvery did not change the key")
	}
	// ...but the invariant-check debug knob is not.
	d := b
	d.CheckEvery = 1000
	if d.Key() != b.Key() {
		t.Error("CheckEvery changed the key")
	}
}

func TestRunSpecValidate(t *testing.T) {
	for _, bad := range []RunSpec{
		{Bench: "bogus", PF: "none", Cores: 1, Measure: 1, Degree: 1},
		{Bench: "mcf", PF: "bogus", Cores: 1, Measure: 1, Degree: 1},
		{Bench: "mcf", PF: "none", Cores: 1, Measure: 0, Degree: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
}

// TestValidateAgreesWithBuildPrefetcher checks that Validate, which
// resolves a prefetcher name without building it, accepts and rejects
// exactly the names BuildPrefetcher does, with the same error: every
// name in the table, the triage alias (valid only inside a hybrid),
// every two-part hybrid of these, and malformed names.
func TestValidateAgreesWithBuildPrefetcher(t *testing.T) {
	names := []string{"triage"}
	for n := range prefetcherTable {
		names = append(names, n)
	}
	sort.Strings(names)
	cases := append([]string{"", "foo", "bo+", "triage+none"}, names...)
	for _, a := range names {
		for _, b := range names {
			cases = append(cases, a+"+"+b)
		}
	}
	m := config.Default(1)
	for _, name := range cases {
		spec := RunSpec{Bench: "mcf", PF: name, Cores: 1, Measure: 1, Degree: 1}
		_, buildErr := BuildPrefetcher(name, m, 1)
		if err := spec.Validate(); fmt.Sprint(err) != fmt.Sprint(buildErr) {
			t.Errorf("pf %q: Validate says %v, BuildPrefetcher says %v", name, err, buildErr)
		}
	}
}

// TestValidateDoesNotBuildPrefetcher pins that Validate checks the
// prefetcher name without constructing the prefetcher, whose metadata
// store is 8 MB for triage-1m.
func TestValidateDoesNotBuildPrefetcher(t *testing.T) {
	spec := RunSpec{Bench: "mcf", PF: "triage-1m", Cores: 1, Warmup: 1, Measure: 1, Degree: 1}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1<<20 {
		t.Errorf("Validate allocated %d bytes per call, want under 1 MB", per)
	}
}

// TestRunSpecDeterministic pins the service's core guarantee at the
// spec level: the same spec runs to an identical encoded result, and
// the JSON encoding round-trips byte-exactly.
func TestRunSpecDeterministic(t *testing.T) {
	rs := RunSpec{Bench: "mcf", PF: "nextline", Cores: 1, Warmup: 20_000, Measure: 50_000, Seed: 42, Degree: 1}
	r1, err := rs.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rs.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := EncodeResult(r1), EncodeResult(r2)
	if !bytes.Equal(b1, b2) {
		t.Error("same spec produced different encoded results")
	}
}

func TestRunSpecSamplerHooks(t *testing.T) {
	rs := RunSpec{Bench: "mcf", PF: "none", Cores: 1, Warmup: 0, Measure: 40_000, Seed: 42, Degree: 1, SampleEvery: 10_000}
	hooks := &telemetry.Hooks{Sampler: telemetry.NewSampler(rs.SampleEvery)}
	if _, err := rs.Run(hooks); err != nil {
		t.Fatal(err)
	}
	if len(hooks.Sampler.Samples()) == 0 {
		t.Error("sampler recorded no samples")
	}
}
