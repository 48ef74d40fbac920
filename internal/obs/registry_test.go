package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestPrometheusExposition pins the text format: sorted metric order,
// TYPE/HELP comments, cumulative histogram buckets with scaled bounds,
// and validity under ValidatePrometheus.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("triaged_submitted_total", "jobs admitted")
	g := r.Gauge("triaged_queue_depth", "queued jobs")
	r.GaugeFunc("triaged_workers", "worker count", func() float64 { return 4 })
	h := r.Histogram("triaged_run_seconds", "run latency", 1e-9)
	c.Add(3)
	g.Set(2)
	h.Observe(10) // bucket upper 10 → 1e-8 s
	h.Observe(10)
	h.Observe(1000) // upper bound 1023

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE triaged_submitted_total counter",
		"triaged_submitted_total 3",
		"# TYPE triaged_queue_depth gauge",
		"triaged_queue_depth 2",
		"triaged_workers 4",
		"# TYPE triaged_run_seconds histogram",
		`triaged_run_seconds_bucket{le="1e-08"} 2`,
		`triaged_run_seconds_bucket{le="+Inf"} 3`,
		"triaged_run_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Sorted order: queue_depth renders before run_seconds before
	// submitted_total before workers.
	idx := func(s string) int { return strings.Index(text, s) }
	if !(idx("triaged_queue_depth") < idx("triaged_run_seconds") &&
		idx("triaged_run_seconds") < idx("triaged_submitted_total") &&
		idx("triaged_submitted_total") < idx("triaged_workers")) {
		t.Errorf("metrics not in sorted name order:\n%s", text)
	}
	if err := ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("self-render fails validation: %v", err)
	}
	// Two renders of a quiescent registry are byte-identical.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeat render of a quiescent registry differs")
	}
}

// TestValidatePrometheusRejectsGarbage pins the validator both ways.
func TestValidatePrometheusRejectsGarbage(t *testing.T) {
	good := "# TYPE x counter\nx 1\nx_bucket{le=\"+Inf\"} 2\n"
	if err := ValidatePrometheus(strings.NewReader(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	for _, bad := range []string{
		"",                    // no samples at all
		"just some prose\n",   // not a sample line
		"x one\n",             // non-numeric value
		"{no_name=\"x\"} 1\n", // missing metric name
	} {
		if err := ValidatePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("invalid exposition %q accepted", bad)
		}
	}
}

// TestRegistrySnapshotJSON pins the JSON shape: numbers for counters
// and gauges, HistJSON objects for histograms, all marshalable, each
// under its name without "triaged_" and, for a counter only, without
// the _total suffix.
func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("triaged_c_total", "").Add(5)
	r.Gauge("triaged_g_total", "").Set(-2)
	r.CounterFunc("triaged_f_total", "", func() float64 { return 1.5 })
	h := r.Histogram("triaged_h", "", 1)
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	snap := r.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back["c"] != 5.0 || back["g_total"] != -2.0 || back["f"] != 1.5 {
		t.Errorf("snapshot keys or numbers wrong: %v", back)
	}
	hj := back["h"].(map[string]any)
	if hj["count"].(float64) != 100 || hj["p50"].(float64) <= 0 {
		t.Errorf("histogram snapshot wrong: %v", hj)
	}
}

// TestGaugeSetMax pins the high-water-mark helper.
func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax regressed to %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not advance to 9 (got %d)", g.Value())
	}
}

// TestDuplicateMetricPanics pins that name collisions, and names that
// map to one JSON key, are programming errors caught loudly at
// registration.
func TestDuplicateMetricPanics(t *testing.T) {
	for i, reg := range []func(r *Registry){
		func(r *Registry) { r.Counter("dup", ""); r.Counter("dup", "") },
		func(r *Registry) { r.Counter("triaged_dup_total", ""); r.Gauge("triaged_dup_total", "") },
		func(r *Registry) { r.Counter("triaged_dup_total", ""); r.Gauge("triaged_dup", "") },
		func(r *Registry) { r.Gauge("triaged_dup", ""); r.Histogram("dup", "", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: duplicate registration did not panic", i)
				}
			}()
			reg(NewRegistry())
		}()
	}
	// A gauge keeps its _total suffix, so gauges named x and x_total
	// (workers called x and x_total) do not collide.
	r := NewRegistry()
	r.Gauge("triaged_x", "")
	r.Gauge("triaged_x_total", "")
}
