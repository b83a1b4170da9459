package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; an increment is a single atomic add.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a programming error on a counter; callers
// pass unsigned magnitudes.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, current
// sample generation). Stored as float64 bits so durations in seconds and
// integer counts share one type.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta (CAS loop; contention on a gauge is a few requests
// deep at most).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets, with a
// running sum and count — the Prometheus histogram model, so latency
// quantiles can be derived server-side.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	sum    Gauge           // reused as an atomic float accumulator
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the "le" bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets are latency buckets in seconds, spanning sub-millisecond scans
// to the multi-second queries the slow log exists for.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metric kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labelled instance of a family.
type series struct {
	labelValues []string
	metric      any // *Counter, *Gauge or *Histogram
}

// family is one named metric with a fixed label schema and any number of
// labelled series. Series creation is the slow path (mutex); increments on
// existing series go through a lock-free sync.Map read.
type family struct {
	name       string
	help       string
	kind       string
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series sync.Map // canonical label-value key -> *series
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	if s, ok := f.series.Load(key); ok {
		return s.(*series)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series.Load(key); ok {
		return s.(*series)
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.metric = &Counter{}
	case kindGauge:
		s.metric = &Gauge{}
	case kindHistogram:
		s.metric = newHistogram(f.buckets)
	}
	f.series.Store(key, s)
	return s
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use. Hot callers may cache the handle.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).metric.(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues).metric.(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues).metric.(*Histogram)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name returns the existing family (the kind and label schema must match,
// enforced by panic — a silent mismatch would corrupt the exposition).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Most code uses Default().
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string, buckets []float64, labelNames ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, buckets: buckets,
		labelNames: append([]string(nil), labelNames...)}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil).get(nil).metric.(*Counter)
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, nil, labelNames...)}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil).get(nil).metric.(*Gauge)
}

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, nil, labelNames...)}
}

// Histogram registers (or returns) an unlabelled histogram. A nil buckets
// slice means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, kindHistogram, buckets).get(nil).metric.(*Histogram)
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, buckets, labelNames...)}
}

// Families returns the label names of every registered family by family
// name, series or not: WritePrometheus leaves out a labelled family that
// has no series yet.
func (r *Registry) Families() map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]string, len(r.families))
	for n, f := range r.families {
		out[n] = append([]string(nil), f.labelNames...)
	}
	return out
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), families and series in deterministic sorted order so
// scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var sb strings.Builder
	for _, n := range names {
		writeFamily(&sb, fams[n])
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeFamily(sb *strings.Builder, f *family) {
	type row struct {
		key string
		s   *series
	}
	var rows []row
	f.series.Range(func(k, v any) bool {
		rows = append(rows, row{k.(string), v.(*series)})
		return true
	})
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })

	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
	for _, rw := range rows {
		switch m := rw.s.metric.(type) {
		case *Counter:
			fmt.Fprintf(sb, "%s%s %d\n", f.name, labelString(f.labelNames, rw.s.labelValues, "", ""), m.Value())
		case *Gauge:
			fmt.Fprintf(sb, "%s%s %s\n", f.name, labelString(f.labelNames, rw.s.labelValues, "", ""), formatFloat(m.Value()))
		case *Histogram:
			var cum uint64
			for i, bound := range m.bounds {
				cum += m.counts[i].Load()
				fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, rw.s.labelValues, "le", formatFloat(bound)), cum)
			}
			cum += m.counts[len(m.bounds)].Load()
			fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
				labelString(f.labelNames, rw.s.labelValues, "le", "+Inf"), cum)
			fmt.Fprintf(sb, "%s_sum%s %s\n", f.name,
				labelString(f.labelNames, rw.s.labelValues, "", ""), formatFloat(m.Sum()))
			fmt.Fprintf(sb, "%s_count%s %d\n", f.name,
				labelString(f.labelNames, rw.s.labelValues, "", ""), m.Count())
		}
	}
}

// labelString renders `{a="x",b="y"}` (plus an optional extra pair, used for
// histogram "le"), or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(extraValue)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in the Prometheus text format — mount it at
// GET /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
