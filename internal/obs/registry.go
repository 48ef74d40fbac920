// Package obs is the service-level observability layer: a
// zero-dependency metrics registry (counters, gauges, fixed-layout
// log-linear latency histograms) renderable as both Prometheus text
// exposition and JSON, plus per-job tracing with a bounded flight
// recorder. Everything is stdlib-only and deterministic where it can
// be: histogram bucket boundaries are fixed (snapshots merge exactly
// and quantiles are reproducible for reproducible inputs), and the
// Prometheus text emits metrics in sorted name order.
//
// Both renderings read the same metrics. The text uses each metric's
// full name; the JSON keys it by its name without the service's
// "triaged_" namespace and, for a counter, without the _total suffix
// (triaged_store_hits_total → store_hits, triaged_queue_depth →
// queue_depth). Registration refuses a metric whose name or JSON key
// is already taken.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric kinds, mapped to Prometheus TYPE lines.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// metric is one registered name.
type metric struct {
	name, help string
	key        string // JSON key
	kind       string
	counter    *Counter
	gauge      *Gauge
	fn         func() float64 // counter/gauge funcs
	hist       *Histogram
	scale      float64 // histogram export multiplier (ns → s: 1e-9)
}

// Registry holds named metrics and renders them. Registration is
// typically done once at construction; reads (scrapes) are safe
// concurrently with metric updates.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // by name
	keys    map[string]bool    // JSON keys taken
}

// namespace prefixes every metric name of the service; the JSON keys
// leave it out.
const namespace = "triaged_"

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric), keys: make(map[string]bool)}
}

// register panics on a duplicate name or JSON key: metric names are
// code-owned, so a collision is a programming error, not input.
func (r *Registry) register(m *metric) {
	m.key = strings.TrimPrefix(m.name, namespace)
	if m.kind == kindCounter {
		m.key = strings.TrimSuffix(m.key, "_total")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup || r.keys[m.key] {
		panic("obs: duplicate metric " + m.name)
	}
	r.metrics[m.name] = m
	r.keys[m.key] = true
}

// Remove unregisters the metric called name, if there is one: both
// renderings drop it, and its name and JSON key may be registered
// again. It is for series whose subject goes away, such as the
// in-flight gauge of a worker the cluster has forgotten.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		delete(r.metrics, name)
		delete(r.keys, m.key)
	}
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// CounterFunc registers a counter whose value is computed at scrape
// time from state owned elsewhere (a cache's own hit counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, fn: fn})
}

// GaugeFunc registers a computed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, fn: fn})
}

// Histogram registers and returns a histogram. scale multiplies raw
// recorded values at export time (record nanoseconds, export seconds
// with scale 1e-9); pass 1 for unitless values.
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, help: help, kind: kindHist, hist: h, scale: scale})
	return h
}

// sorted returns the metrics in name order (the deterministic render
// order for both output formats).
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// ftoa renders a float the way encoding/json does (shortest
// round-trip), so the two export formats agree on values.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), in sorted name order. Histograms
// emit only their non-empty buckets (cumulative counts stay correct)
// plus the +Inf bucket, _sum, and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.sorted() {
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.hist != nil:
			s := m.hist.Snapshot()
			var cum uint64
			for i, c := range s.Buckets {
				if c == 0 {
					continue
				}
				cum += c
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", m.name, ftoa(float64(bucketUpper(i))*m.scale), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.name, s.Count)
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, ftoa(float64(s.Sum)*m.scale))
			fmt.Fprintf(bw, "%s_count %d\n", m.name, s.Count)
		case m.fn != nil:
			fmt.Fprintf(bw, "%s %s\n", m.name, ftoa(m.fn()))
		case m.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.gauge.Value())
		}
	}
	return bw.Flush()
}

// HistJSON is the JSON rendering of one histogram: count plus scaled
// sum and quantile estimates.
type HistJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// histJSON renders a snapshot with the metric's scale applied.
func histJSON(s HistSnapshot, scale float64) HistJSON {
	return HistJSON{
		Count: s.Count,
		Sum:   float64(s.Sum) * scale,
		P50:   float64(s.Quantile(0.50)) * scale,
		P90:   float64(s.Quantile(0.90)) * scale,
		P99:   float64(s.Quantile(0.99)) * scale,
		P999:  float64(s.Quantile(0.999)) * scale,
		Max:   float64(s.Max()) * scale,
	}
}

// Snapshot renders every metric as a JSON-marshalable map under its
// JSON key: counters and gauges as numbers, histograms as HistJSON
// objects.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, m := range r.sorted() {
		switch {
		case m.hist != nil:
			out[m.key] = histJSON(m.hist.Snapshot(), m.scale)
		case m.fn != nil:
			out[m.key] = m.fn()
		case m.counter != nil:
			out[m.key] = m.counter.Value()
		case m.gauge != nil:
			out[m.key] = m.gauge.Value()
		}
	}
	return out
}

// promLine matches one sample line of the text exposition format:
// metric name, optional label set, and a float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

// ValidatePrometheus checks that r is a well-formed Prometheus text
// exposition: every non-blank, non-comment line must parse as a sample
// with a finite or +Inf-labeled float value. It returns the first
// offending line. Tests use it to assert the /metrics endpoint stays
// scrapeable.
func ValidatePrometheus(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	samples := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			return fmt.Errorf("obs: line %d is not a valid sample: %q", n, line)
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return fmt.Errorf("obs: line %d has a bad value %q: %v", n, val, err)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("obs: exposition contains no samples")
	}
	return nil
}
