// Package telemetry provides lock-free metric primitives — counters,
// gauges and fixed-bucket histograms — plus a Prometheus text-format
// encoder. It has no external dependencies.
//
// Metrics are registered lazily: Counter/Gauge/Histogram return the
// existing instrument when one with the same name and label set already
// exists, so callers on the hot path can hold a reference once and then
// record with plain atomic operations. A nil *Registry is valid and all
// instruments obtained from it are no-ops, which lets instrumented
// packages run without telemetry wired up (e.g. in unit tests).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is a single name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets are the default histogram upper bounds, in seconds, on
// a 1-2.5-5 log scale from 100µs to 60s. They cover everything from a
// cached-answer hit to a full multi-round agent ask.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 25, 60,
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one to the counter. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta. Negative deltas are ignored.
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket counts are
// stored non-cumulatively and summed at encode time; the observation
// sum is maintained with a CAS loop over the float64 bit pattern. All
// recording methods are lock-free and safe for concurrent use.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // math.Float64bits of the running sum
	count  atomic.Int64
}

// NewHistogram returns a histogram over LatencyBuckets that belongs to no
// registry until one attaches it (Registry.AttachHistogram).
func NewHistogram() *Histogram { return newHistogram(LatencyBuckets) }

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records a single value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts aligned with h.bounds plus
// a trailing +Inf entry, along with sum and count, read best-effort
// (individual loads are atomic; the set is not a consistent cut).
func (h *Histogram) snapshot() (cum []int64, sum float64, count int64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.Sum(), h.Count()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instance of a family. A counter or gauge series
// with fn set reads its value from fn at scrape time.
type series struct {
	labels []Label // sorted by key
	sig    string
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	bounds []float64 // histograms only
	series map[string]*series
}

// Registry holds metric families. Instrument lookup takes a mutex;
// recording on the returned instrument is lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry, creating it on first use.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// SetHelp attaches HELP text to a metric family. It may be called
// before or after the family's first instrument is created.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, series: make(map[string]*series)}
		r.families[name] = f
	}
	f.help = help
}

func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// lookup finds or creates the series for (name, labels). kind mismatch
// on an existing family panics: it is a programming error, not a
// runtime condition.
func (r *Registry) lookup(name string, kind metricKind, bounds []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		if kind == kindHistogram {
			f.bounds = bounds
		}
		r.families[name] = f
	} else if len(f.series) > 0 && f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as different kind", name))
	} else if len(f.series) == 0 {
		f.kind = kind
		if kind == kindHistogram {
			f.bounds = bounds
		}
	}
	ls := sortLabels(labels)
	sig := labelSig(ls)
	s := f.series[sig]
	if s == nil {
		s = &series{labels: ls, sig: sig}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter series for name with the given labels,
// creating it if needed. On a nil registry it returns a no-op counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labels).c
}

// Gauge returns the gauge series for name with the given labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labels).g
}

// Histogram returns the histogram series for name with the given
// bucket upper bounds and labels. Bounds are fixed by the first caller
// for a given name; later callers share them.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	return r.lookup(name, kindHistogram, bounds, labels).h
}

// CounterFunc makes the counter series for name and labels read fn at
// every scrape, replacing its own count: the value of a counter its owner
// keeps. Registering the series again replaces fn.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	r.setFunc(name, kindCounter, fn, labels)
}

// GaugeFunc makes the gauge series for name and labels read fn at every
// scrape, as CounterFunc does for a counter.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	r.setFunc(name, kindGauge, fn, labels)
}

func (r *Registry) setFunc(name string, kind metricKind, fn func() int64, labels []Label) {
	if r == nil {
		return
	}
	s := r.lookup(name, kind, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// AttachHistogram makes h, which its owner observes into, the histogram
// series for name and labels; the family takes h's bounds. Attaching the
// series again replaces h.
func (r *Registry) AttachHistogram(name string, h *Histogram, labels ...Label) {
	if r == nil {
		return
	}
	s := r.lookup(name, kindHistogram, h.bounds, labels)
	r.mu.Lock()
	s.h = h
	r.families[name].bounds = h.bounds
	r.mu.Unlock()
}
