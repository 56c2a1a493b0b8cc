package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. Add/Inc are lock-free
// and allocation-free; safe for concurrent use.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// Inc adds one.
//
//dmp:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//dmp:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depth, live snapshots).
// Set/Add are lock-free and allocation-free.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set replaces the value.
//
//dmp:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrement).
//
//dmp:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates float64 observations into fixed upper-bound
// buckets chosen at construction. Observe is lock-free and
// allocation-free: a linear scan over the (small, fixed) bucket bounds,
// one atomic add, and a CAS loop folding the observation into the sum.
// There is no +Inf bucket slot; observations above the last bound only
// count toward count/sum, Prometheus-style (the exposition emits the
// implicit +Inf bucket as the total count).
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds, fixed after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, folded via CAS
}

// Observe records one sample.
//
//dmp:hotpath
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// SecondsBuckets is a general-purpose latency bucket ladder (seconds),
// spanning 100µs to ~2 minutes in roughly 1-2-5 steps.
func SecondsBuckets() []float64 {
	return []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}
}

// Registry holds a fixed-order set of metrics. Registration appends;
// snapshots and expositions iterate in registration order, which is
// deterministic for package-level metrics (init order) and keeps the
// package sort-free.
type Registry struct {
	mu    sync.Mutex
	names map[string]bool
	cs    []*Counter
	gs    []*Gauge
	hs    []*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(name string) {
	if r.names[name] {
		panic("telemetry: duplicate metric " + name)
	}
	r.names[name] = true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	c := &Counter{name: name, help: help}
	r.cs = append(r.cs, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	g := &Gauge{name: name, help: help}
	r.gs = append(r.gs, g)
	return g
}

// Histogram registers and returns a new histogram with the given
// ascending upper bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds not ascending: " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)),
	}
	r.hs = append(r.hs, h)
	return h
}

// --- snapshots ---

// CounterVal is one counter's reading.
type CounterVal struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeVal is one gauge's reading.
type GaugeVal struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramVal is one histogram's reading. Buckets are cumulative-free
// per-bucket counts aligned with Bounds; observations above the last
// bound appear only in Count/Sum.
type HistogramVal struct {
	Name    string    `json:"name"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time reading of every metric in a registry, in
// registration order. Readings of concurrently updated metrics are
// individually atomic but not mutually consistent — same as Stats
// snapshots taken from a running simulation.
type Snapshot struct {
	Counters   []CounterVal   `json:"counters"`
	Gauges     []GaugeVal     `json:"gauges"`
	Histograms []HistogramVal `json:"histograms"`
}

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs, gs, hs := r.cs, r.gs, r.hs
	r.mu.Unlock()
	var s Snapshot
	s.Counters = make([]CounterVal, len(cs))
	for i, c := range cs {
		s.Counters[i] = CounterVal{Name: c.name, Value: c.Value()}
	}
	s.Gauges = make([]GaugeVal, len(gs))
	for i, g := range gs {
		s.Gauges[i] = GaugeVal{Name: g.name, Value: g.Value()}
	}
	s.Histograms = make([]HistogramVal, len(hs))
	for i, h := range hs {
		hv := HistogramVal{
			Name:    h.name,
			Bounds:  h.bounds,
			Buckets: make([]uint64, len(h.buckets)),
			Count:   h.Count(),
			Sum:     h.Sum(),
		}
		for j := range h.buckets {
			hv.Buckets[j] = h.buckets[j].Load()
		}
		s.Histograms[i] = hv
	}
	return s
}

// Delta returns s minus prev, aligned by metric name: counters and
// histogram counts subtract, gauges report their current value (a gauge
// has no meaningful difference), matching Stats.Delta's convention of
// interval counters over instantaneous state. Metrics absent from prev
// (registered later) delta against zero. It measures one window of a
// run from outside (dmpbench reads the registry this way).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	pc := make(map[string]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Name] = c.Value
	}
	ph := make(map[string]HistogramVal, len(prev.Histograms))
	for _, h := range prev.Histograms {
		ph[h.Name] = h
	}
	var d Snapshot
	d.Counters = make([]CounterVal, len(s.Counters))
	for i, c := range s.Counters {
		d.Counters[i] = CounterVal{Name: c.Name, Value: c.Value - pc[c.Name]}
	}
	d.Gauges = append([]GaugeVal(nil), s.Gauges...)
	d.Histograms = make([]HistogramVal, len(s.Histograms))
	for i, h := range s.Histograms {
		dv := HistogramVal{
			Name:    h.Name,
			Bounds:  h.Bounds,
			Buckets: append([]uint64(nil), h.Buckets...),
			Count:   h.Count,
			Sum:     h.Sum,
		}
		if p, ok := ph[h.Name]; ok && len(p.Buckets) == len(dv.Buckets) {
			for j := range dv.Buckets {
				dv.Buckets[j] -= p.Buckets[j]
			}
			dv.Count -= p.Count
			dv.Sum -= p.Sum
		}
		d.Histograms[i] = dv
	}
	return d
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (v0.0.4). Histogram buckets are emitted cumulatively with the
// implicit +Inf bucket, as the format requires.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", h.Name)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", h.Name, formatBound(bound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", h.Name, h.Sum, h.Name, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// --- process default registry ---

var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry that package-level
// NewCounter/NewGauge/NewHistogram register into.
func DefaultRegistry() *Registry { return defaultRegistry }

// NewCounter registers a counter in the default registry. Intended for
// package-level vars in instrumented packages.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, help, bounds)
}
