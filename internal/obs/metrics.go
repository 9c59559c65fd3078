// Package obs is Volley's observability substrate: a lock-cheap metrics
// registry (atomic counters, gauges, fixed-bucket streaming histograms)
// plus a structured decision-event tracer (trace.go). Monitoring the
// monitor is the point — Volley's value proposition is a runtime trade-off
// between sampling cost and misdetection probability, and this package
// makes that trade-off visible while it happens.
//
// Design constraints, in order:
//
//   - Zero allocations on the hot path. Counter.Inc, Gauge.Set,
//     Histogram.Observe and Tracer.Record (without a JSONL sink) allocate
//     nothing; the per-sample guards in alloc_test.go enforce this.
//   - Nil-safety everywhere. The zero value of every instrument works, and
//     every method is a no-op on a nil receiver, so an un-instrumented
//     component pays exactly one nil check per decision point instead of
//     branching on a configuration flag.
//   - No dependencies. Exposition is the hand-rolled Prometheus text
//     format (prom.go); obs imports only the standard library and sits
//     below every other volley package.
package obs

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; methods on a nil *Counter are no-ops.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; methods on a nil *Gauge are no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket streaming distribution: cumulative counts
// over ascending upper bounds plus an implicit +Inf bucket, with an atomic
// running sum. Observe is lock-free and allocation-free; quantiles are
// estimated at read time by linear interpolation within the bucket, the
// classic monitoring-stack compromise between streaming cost and accuracy
// (cf. incremental quantile estimation for networked applications).
//
// Construct with NewHistogram; the zero value has no buckets and only
// tracks count and sum.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBoundBuckets suits misdetection-probability distributions: log-spaced
// from 1e-6 to 1 (bounds are probabilities in [0, 1]).
var DefBoundBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 1}

// NewHistogram builds a histogram over the given ascending upper bounds
// (copied). Non-ascending bounds are sorted and deduplicated rather than
// rejected — a misconfigured histogram should degrade, not crash a monitor.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{
		bounds:  dedup,
		buckets: make([]atomic.Uint64, len(dedup)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if len(h.buckets) > 0 {
		// Linear scan: bucket counts are small (≈10) and the scan avoids
		// the bounds-check patterns that defeat inlining in sort.Search.
		i := len(h.bounds) // +Inf bucket
		for j, b := range h.bounds {
			if v <= b {
				i = j
				break
			}
		}
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (q in [0, 1]) from the bucket
// counts, interpolating linearly within the winning bucket. It returns NaN
// with no observations or no buckets. Values in the +Inf bucket clamp to
// the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if cum+n >= rank && n > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// metric kinds for rendering.
const (
	kindCounter = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindGaugeVecFunc
	kindHistogram
)

// series is one labeled instance of a metric family.
type series struct {
	labels string // pre-rendered `key="value",...` without braces; "" if unlabeled
	seq    uint64 // registration order, registry-wide
	inst   any    // *Counter, *Gauge, func() float64 or *Histogram, as the family's kind says; nil once removed
}

// family groups the series sharing one metric name.
type family struct {
	name, help string
	kind       int
	seq        uint64             // registration order, registry-wide
	series     []*series          // ascending seq, which is exposition order; may hold removed ones
	removed    int                // how many of series are removed and wait to be dropped
	index      map[string]*series // the live series by label string; a key is its series' own string, never a copy
	vecLabel   string
	vecFn      func() map[string]float64
	// Histogram families: the `le="…"` label of each of leBounds, rendered
	// when the first series arrives. A series over other bounds renders its
	// own at scrape time.
	leBounds []float64
	le       [][]byte
}

// Registry collects metric families for exposition. Registration takes a
// lock and may allocate, but costs the same however many series a family
// already holds; the instruments it hands out are the atomic types above,
// so the observe path never touches the registry again. All methods are
// nil-safe: registering on a nil *Registry returns a detached (but fully
// usable) instrument, so components can instrument themselves
// unconditionally.
//
// A series lives from its registration to the Remove of a Scope with its
// labels. Families and series carry the sequence number of their
// registration and are kept in that order, which is what lets a scrape give
// the lock up between chunks and find its place again (prom.go).
type Registry struct {
	mu     sync.Mutex
	seq    uint64    // the last sequence number handed out
	probes uint64    // index lookups made: the tests' witness that finding a series is one of them
	order  []*family // ascending seq
	byName map[string]*family
	idle   atomic.Pointer[scrape] // what the last scrape left for the next
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor returns the family for name, creating it with the given help and
// kind. A name registered before with a different kind yields nil (the
// caller then hands out a detached instrument).
func (r *Registry) familyFor(name, help string, kind int) *family {
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			return nil
		}
		return f
	}
	r.seq++
	f := &family{name: name, help: help, kind: kind, seq: r.seq, index: make(map[string]*series)}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// lookup returns f's series with the given label string, if any.
func (r *Registry) lookup(f *family, labels string) *series {
	r.probes++
	return f.index[labels]
}

// renderLabels turns ("k1", "v1", "k2", "v2") pairs into `k1="v1",k2="v2"`.
// A trailing odd element is ignored.
func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(kv[i+1]))
	}
	return b.String()
}

// Scope is a registry seen through one fixed set of label pairs: everything
// registered through it carries those labels, rendered once and shared by
// the series however many follow, and Remove takes them out again. A
// component that owns several series under one identity (a task's sampler
// series under its task label) registers them through one Scope and later
// removes them through it.
// The zero Scope, and any made from a nil registry, hands out detached
// instruments.
type Scope struct {
	r      *Registry
	labels string
}

// With returns the scope of the given label pairs (none: the unlabeled
// series).
func (r *Registry) With(labelPairs ...string) Scope {
	if r == nil {
		return Scope{}
	}
	return Scope{r: r, labels: renderLabels(labelPairs)}
}

// register returns the instrument of the named family's series that carries
// the scope's labels, making the family and the series — its instrument
// built by fresh — where they do not exist. The first registration wins: an
// instrument found is returned as it is. A kind conflict yields nil.
func (sc Scope) register(name, help string, kind int, fresh func() any) any {
	r := sc.r
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kind)
	if f == nil {
		return nil
	}
	if s := r.lookup(f, sc.labels); s != nil {
		return s.inst
	}
	r.seq++
	s := &series{labels: sc.labels, seq: r.seq, inst: fresh()}
	f.series = append(f.series, s)
	f.index[s.labels] = s
	if h, ok := s.inst.(*Histogram); ok && f.le == nil {
		f.leBounds, f.le = h.bounds, renderLe(h.bounds)
	}
	return s.inst
}

// Counter registers (or retrieves) the scope's counter of the given name.
// Kind conflicts and nil registries yield a detached counter that works but
// is not exposed.
func (sc Scope) Counter(name, help string) *Counter {
	if sc.r != nil {
		if c, ok := sc.register(name, help, kindCounter, func() any { return &Counter{} }).(*Counter); ok {
			return c
		}
	}
	return &Counter{}
}

// Gauge registers (or retrieves) the scope's gauge; same conventions as
// Counter.
func (sc Scope) Gauge(name, help string) *Gauge {
	if sc.r != nil {
		if g, ok := sc.register(name, help, kindGauge, func() any { return &Gauge{} }).(*Gauge); ok {
			return g
		}
	}
	return &Gauge{}
}

// Histogram registers (or retrieves) the scope's fixed-bucket histogram over
// the given ascending upper bounds; same conventions as Counter.
func (sc Scope) Histogram(name, help string, bounds []float64) *Histogram {
	if sc.r != nil {
		if h, ok := sc.register(name, help, kindHistogram, func() any { return NewHistogram(bounds) }).(*Histogram); ok {
			return h
		}
	}
	return NewHistogram(bounds)
}

// GaugeFunc registers the scope's gauge evaluated at scrape time. fn must
// not call back into the registry (the registry lock is held while it
// runs). A series already registered under the name and labels keeps its
// function.
func (sc Scope) GaugeFunc(name, help string, fn func() float64) {
	if sc.r != nil && fn != nil {
		sc.register(name, help, kindGaugeFunc, func() any { return fn })
	}
}

// Remove takes every series that carries exactly the scope's labels out of
// the registry, whichever call registered it, and with its last series a
// family: the page is what it was before they came. The instruments stay
// usable, detached, and a later registration under the same labels starts
// from zero. It costs a lookup per family, whatever the families hold: a
// removed series is only marked, and a family drops its marked series
// together once they are half of what it holds.
func (sc Scope) Remove() {
	r := sc.r
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.order[:0]
	for _, f := range r.order {
		if s := r.lookup(f, sc.labels); s != nil {
			delete(f.index, sc.labels)
			s.inst = nil
			if len(f.index) == 0 {
				delete(r.byName, f.name)
				continue
			}
			if f.removed++; 2*f.removed > len(f.series) {
				f.series = slices.DeleteFunc(f.series, func(s *series) bool { return s.inst == nil })
				f.removed = 0
			}
		}
		kept = append(kept, f)
	}
	clear(r.order[len(kept):])
	r.order = kept
}

// Counter registers (or retrieves) a counter with the given name and label
// pairs: With(labelPairs...).Counter(name, help).
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	return r.With(labelPairs...).Counter(name, help)
}

// Gauge registers (or retrieves) a gauge; same conventions as Counter.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	return r.With(labelPairs...).Gauge(name, help)
}

// Histogram registers (or retrieves) a fixed-bucket histogram over the
// given ascending upper bounds; same conventions as Counter.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	return r.With(labelPairs...).Histogram(name, help, bounds)
}

// GaugeFunc registers a gauge evaluated at scrape time. fn must not call
// back into the registry (the registry lock is held while it runs).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.With(labelPairs...).GaugeFunc(name, help, fn)
}

// CounterFunc registers a counter evaluated at scrape time — for
// components that already keep their own atomic totals (a transport
// node's Stats snapshot) and should not maintain a second copy. fn must
// be monotonic to honor counter semantics, and must not call back into
// the registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r != nil && fn != nil {
		r.With(labelPairs...).register(name, help, kindCounterFunc, func() any { return fn })
	}
}

// GaugeVecFunc registers a dynamically labeled gauge family: at scrape time
// fn returns a map of label value → gauge value, rendered with the given
// label key in sorted order. Use it for per-peer state (send-queue depths,
// per-monitor assignments) where the label set changes at runtime. fn must
// not call back into the registry.
func (r *Registry) GaugeVecFunc(name, help, labelKey string, fn func() map[string]float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGaugeVecFunc)
	if f == nil || f.vecFn != nil {
		return
	}
	f.vecLabel = labelKey
	f.vecFn = fn
}
