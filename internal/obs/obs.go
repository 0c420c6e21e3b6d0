// Package obs is a zero-dependency observability layer: an atomic metrics
// registry (counters, gauges, histograms with fixed latency buckets) with
// Prometheus text-format exposition, HTTP server metrics, and the typed
// AuditStats record the validator emits per run.
//
// The design goal is that instrumentation can be wired through the hot
// paths of the validator without taxing the uninstrumented configuration:
// every metric method is nil-safe (a no-op on a nil receiver) and performs
// no allocation, so packages expose plain metric-pointer hooks that stay
// nil until an Instrument call points them at a Registry. CLI tools that
// never instrument pay only an untaken nil-check branch per recording
// site — recording sites sit outside the per-equation loops, so the
// validate hot path itself is untouched either way.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
// All methods are nil-safe no-ops, so uninstrumented hooks cost nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters only grow).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic integer gauge.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 gauge (bits stored in a uint64), for
// ratios like the realized gain G.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets is the fixed latency bucket layout (seconds) every histogram
// in this codebase uses: validation phases span hundreds of nanoseconds
// (one sharded group) to tens of seconds (a 30-license undivided sweep),
// and HTTP handlers sit in the middle, so the bounds cover 1µs..10s in
// roughly half-decade steps.
var DefBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	2.5e-3, 10e-3, 50e-3, 250e-3, 1, 2.5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are atomic;
// bucket counts are stored non-cumulatively and accumulated at exposition
// time. The sum is kept in integer nanoseconds so Observe never needs a
// CAS loop. Each bucket retains the most recent exemplar stored through
// ObserveExemplar — the OpenMetrics-style metric→trace link.
type Histogram struct {
	upper     []float64 // ascending bucket upper bounds, seconds
	counts    []atomic.Int64
	inf       atomic.Int64
	count     atomic.Int64
	sumNanos  atomic.Int64
	exemplars []atomic.Pointer[exemplar] // len(upper)+1; last is +Inf
}

// exemplar is the stored form; Exemplar is the read-side view.
type exemplar struct {
	value     float64
	traceID   string
	unixNanos int64
}

// Exemplar is one retained observation with its trace identity: the
// handle that links a histogram bucket to /debug/traces.
type Exemplar struct {
	// Value is the observed value (seconds) and LE the upper bound of
	// the bucket it landed in (+Inf for the overflow bucket).
	Value float64
	LE    float64
	// TraceID is the hex trace ID active when the observation was made.
	TraceID string
	// UnixNanos is the wall clock at observation time.
	UnixNanos int64
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{
		upper:     upper,
		counts:    make([]atomic.Int64, len(upper)),
		exemplars: make([]atomic.Pointer[exemplar], len(upper)+1),
	}
}

// Observe records one observation of v seconds.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// observe records v and returns the bucket index it landed in
// (len(upper) for the +Inf overflow bucket).
func (h *Histogram) observe(v float64) int {
	h.count.Add(1)
	h.sumNanos.Add(int64(v * 1e9))
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			return i
		}
	}
	h.inf.Add(1)
	return len(h.upper)
}

// ObserveExemplar records v and, when traceID is non-empty, retains it
// as the bucket's exemplar. With an empty traceID (an untraced request)
// it is exactly Observe: nil-safe and allocation-free, so instrumented
// hot paths pay nothing extra when tracing is off.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.observe(v)
	if traceID == "" {
		return
	}
	h.exemplars[i].Store(&exemplar{value: v, traceID: traceID, unixNanos: time.Now().UnixNano()})
}

// Exemplars returns the buckets' retained exemplars, lowest bucket
// first (nil on nil or when nothing was retained).
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		le := math.Inf(1)
		if i < len(h.upper) {
			le = h.upper[i]
		}
		out = append(out, Exemplar{Value: e.value, LE: le, TraceID: e.traceID, UnixNanos: e.unixNanos})
	}
	return out
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values in seconds (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNanos.Load()) / 1e9
}

// Registry holds named metric families and renders them in Prometheus
// text format. Families expose in registration order; series within a
// family in creation order. Metric creation takes a lock; recording on
// the returned handles is lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// family is one named metric family: a plain metric is a family with a
// single unlabelled series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	fg          *FloatGauge
	h           *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor returns the named family, creating it on first use, and
// panics when a name is re-registered with a different type or label set
// (a programming error, like prometheus.MustRegister).
func (r *Registry) familyFor(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...), byKey: make(map[string]*series)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels",
			f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	s := r.familyFor(name, help, "counter", nil).seriesFor(nil)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or fetches) an unlabelled integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	s := r.familyFor(name, help, "gauge", nil).seriesFor(nil)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// FloatGauge registers (or fetches) an unlabelled float gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	s := r.familyFor(name, help, "gauge", nil).seriesFor(nil)
	if s.fg == nil {
		s.fg = &FloatGauge{}
	}
	return s.fg
}

// Histogram registers (or fetches) an unlabelled histogram with the given
// bucket upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	s := r.familyFor(name, help, "histogram", nil).seriesFor(nil)
	if s.h == nil {
		s.h = newHistogram(buckets)
	}
	return s.h
}

// CounterVec is a counter family with labels.
type CounterVec struct {
	f *family
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.familyFor(name, help, "counter", labels)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve handles once at wiring time, not per recording.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	s := v.f.seriesFor(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// FloatGaugeVec is a float gauge family with labels.
type FloatGaugeVec struct {
	f *family
}

// FloatGaugeVec registers (or fetches) a labelled float gauge family.
func (r *Registry) FloatGaugeVec(name, help string, labels ...string) *FloatGaugeVec {
	return &FloatGaugeVec{f: r.familyFor(name, help, "gauge", labels)}
}

// With returns the gauge for the given label values, creating it on
// first use. Nil-safe: a nil vec returns a nil (no-op) gauge.
func (v *FloatGaugeVec) With(values ...string) *FloatGauge {
	if v == nil {
		return nil
	}
	s := v.f.seriesFor(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s.fg == nil {
		s.fg = &FloatGauge{}
	}
	return s.fg
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers (or fetches) a labelled histogram family with the
// given bucket upper bounds (DefBuckets when nil).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.familyFor(name, help, "histogram", labels), buckets: buckets}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	s := v.f.seriesFor(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s.h == nil {
		s.h = newHistogram(v.buckets)
	}
	return s.h
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	series := append([]*series(nil), f.series...)
	f.mu.Unlock()
	if len(series) == 0 {
		return
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range series {
		labels := formatLabels(f.labels, s.labelValues)
		switch {
		case s.c != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labels, s.c.Value())
		case s.g != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labels, s.g.Value())
		case s.fg != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(s.fg.Value()))
		case s.h != nil:
			s.h.write(b, f.name, f.labels, s.labelValues)
		}
	}
}

// write renders the histogram's cumulative _bucket series plus _sum and
// _count, merging the le label into any series labels. The merged
// slices are fresh copies — appending to the family's label slices in
// place could alias their backing arrays across concurrent writers.
func (h *Histogram) write(b *strings.Builder, name string, labelNames, labelValues []string) {
	leNames := make([]string, 0, len(labelNames)+1)
	leNames = append(append(leNames, labelNames...), "le")
	leValues := make([]string, len(labelValues)+1)
	copy(leValues, labelValues)
	var cum int64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		leValues[len(leValues)-1] = formatFloat(ub)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, formatLabels(leNames, leValues), cum)
	}
	cum += h.inf.Load()
	leValues[len(leValues)-1] = "+Inf"
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, formatLabels(leNames, leValues), cum)
	plain := formatLabels(labelNames, labelValues)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, plain, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, plain, h.count.Load())
}

func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The escape replacers are package-level: building a Replacer compiles
// a lookup structure, which per-call construction would redo on every
// label of every scrape.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
