package obs

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Counter.Value = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Gauge.Value = %v, want 1.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram counted")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("nil histogram quantile not NaN")
	}
	var r *Registry
	r.Counter("x", "h").Inc()
	r.Gauge("y", "h").Set(1)
	r.Histogram("z", "h", DefBoundBuckets).Observe(1)
	r.GaugeFunc("f", "h", func() float64 { return 1 })
	r.GaugeVecFunc("v", "h", "k", func() map[string]float64 { return nil })
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry rendered %q", b.String())
	}
	var tr *Tracer
	tr.Record(Event{Type: EventViolation})
	if tr.Total() != 0 || tr.Events() != nil || tr.TypeCount(EventViolation) != 0 {
		t.Error("nil tracer recorded")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewRegistry().Counter("c", "h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent count = %d, want 8000", got)
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Errorf("concurrent gauge = %v, want 8000", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 9} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-15.7) > 1e-9 {
		t.Errorf("Sum = %v, want 15.7", got)
	}
	// Median rank 2.5 falls in the (1,2] bucket (cumulative 1 → 3).
	q := h.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Errorf("Quantile(0.5) = %v, want in (1,2]", q)
	}
	// +Inf-bucket values clamp to the top finite bound.
	if got := h.Quantile(1); got != 8 {
		t.Errorf("Quantile(1) = %v, want 8", got)
	}
	if !math.IsNaN(NewHistogram(nil).Quantile(0.5)) {
		t.Error("bucketless histogram quantile not NaN")
	}
}

func TestHistogramUnsortedBoundsDegrade(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 4, 2})
	h.Observe(3)
	if h.Count() != 1 {
		t.Errorf("Count = %d, want 1", h.Count())
	}
	if len(h.bounds) != 3 {
		t.Errorf("bounds = %v, want sorted dedup [1 2 4]", h.bounds)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("volley_x_total", "help", "instance", "a")
	b := r.Counter("volley_x_total", "help", "instance", "a")
	if a != b {
		t.Error("same name+labels did not return the same counter")
	}
	other := r.Counter("volley_x_total", "help", "instance", "b")
	if other == a {
		t.Error("distinct labels shared a counter")
	}
	// Kind conflict: usable but detached.
	g := r.Gauge("volley_x_total", "help")
	g.Set(7)
	if g.Value() != 7 {
		t.Error("detached gauge unusable")
	}
	var w strings.Builder
	r.WritePrometheus(&w)
	if strings.Contains(w.String(), " 7\n") {
		t.Errorf("conflicting gauge leaked into exposition:\n%s", w.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("volley_samples_total", "Samples.", "instance", "m0").Add(3)
	r.Gauge("volley_interval", "Interval.").Set(4)
	r.GaugeFunc("volley_alive", "Alive.", func() float64 { return 2 })
	r.GaugeVecFunc("volley_queue_depth", "Depth.", "peer", func() map[string]float64 {
		return map[string]float64{"b:1": 1, "a:1": 5}
	})
	h := r.Histogram("volley_bound", "Bound.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE volley_samples_total counter",
		`volley_samples_total{instance="m0"} 3`,
		"volley_interval 4",
		"volley_alive 2",
		`volley_queue_depth{peer="a:1"} 5`,
		`volley_queue_depth{peer="b:1"} 1`,
		"# TYPE volley_bound histogram",
		`volley_bound_bucket{le="0.1"} 1`,
		`volley_bound_bucket{le="1"} 2`,
		`volley_bound_bucket{le="+Inf"} 3`,
		"volley_bound_sum 3.55",
		"volley_bound_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Vec labels render in sorted order for deterministic scrapes.
	if strings.Index(out, `peer="a:1"`) > strings.Index(out, `peer="b:1"`) {
		t.Error("vec gauge labels not sorted")
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", DefBoundBuckets)
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(0.5)
		g.Add(1)
		h.Observe(0.02)
	}); allocs != 0 {
		t.Errorf("metrics hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.CounterFunc("volley_bytes_total", "Bytes.", func() float64 { return float64(n) })
	r.CounterFunc("volley_frames_total", "Frames.", func() float64 { return 9 }, "peer", "a:1")
	n = 42

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE volley_bytes_total counter",
		"volley_bytes_total 42",
		"# TYPE volley_frames_total counter",
		`volley_frames_total{peer="a:1"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Nil-safety and kind-conflict conventions match GaugeFunc: neither
	// may panic, and a conflicting registration stays out of exposition.
	var nilReg *Registry
	nilReg.CounterFunc("x", "h", func() float64 { return 1 })
	r.CounterFunc("volley_bytes_total", "Bytes.", nil)
	r.Gauge("volley_bytes_total", "Bytes.").Set(7)
	b.Reset()
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), " 7\n") {
		t.Errorf("conflicting gauge leaked into exposition:\n%s", b.String())
	}
}

// registerMonitor registers six series of every kind under one instance
// scope: one identity spread over several families.
func registerMonitor(r *Registry, id string) {
	sc := r.With("instance", id)
	sc.Counter("volley_sampler_observations_total", "h")
	sc.Counter("volley_sampler_interval_grows_total", "h")
	sc.Counter("volley_sampler_interval_resets_total", "h")
	sc.Gauge("volley_sampler_interval", "h")
	sc.Gauge("volley_sampler_bound", "h")
	sc.Histogram("volley_sampler_bound_dist", "h", DefBoundBuckets)
}

// liveSeries counts the registry's series, by the slices and by the
// indexes, which must agree; and no family holds more removed series than
// live ones.
func liveSeries(t *testing.T, r *Registry) int {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.order {
		live := 0
		for i, s := range f.series {
			if i > 0 && s.seq <= f.series[i-1].seq {
				t.Fatalf("family %s: series out of registration order at %d", f.name, i)
			}
			if s.inst != nil {
				live++
			}
		}
		if len(f.index) != live || f.removed != len(f.series)-live || f.removed > live {
			t.Fatalf("family %s: %d series of which %d live, %d indexed, %d counted removed",
				f.name, len(f.series), live, len(f.index), f.removed)
		}
		n += live
	}
	if len(r.byName) != len(r.order) {
		t.Fatalf("%d families by name, %d in order", len(r.byName), len(r.order))
	}
	return n
}

// TestRegistrationProbesTheIndexOnce is the deterministic side of
// TestRegistrationCostIsFlat: whatever a family already holds, registering
// a series and finding it again is one index probe each, and the index
// holds the series' own label string, not a second copy of it.
func TestRegistrationProbesTheIndexOnce(t *testing.T) {
	r := NewRegistry()
	for _, size := range []int{1, 1000, 20000} {
		for n := liveSeries(t, r) / 6; n < size; n++ {
			registerMonitor(r, "wide/m"+strconv.Itoa(n))
		}
		before := r.probes
		registerMonitor(r, "probe-"+strconv.Itoa(size))
		if got := r.probes - before; got != 6 {
			t.Errorf("at %d monitors: registering six series probed %d times, want 6", size, got)
		}
		before = r.probes
		c := r.Counter("volley_sampler_observations_total", "h", "instance", "wide/m0")
		if got := r.probes - before; got != 1 {
			t.Errorf("at %d monitors: finding a series probed %d times, want 1", size, got)
		}
		if c != r.With("instance", "wide/m0").Counter("volley_sampler_observations_total", "h") {
			t.Errorf("at %d monitors: the same name and labels found two counters", size)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var first string
	for _, f := range r.order {
		for k, s := range f.index {
			if unsafe.StringData(k) != unsafe.StringData(s.labels) {
				t.Fatalf("family %s keeps its own copy of %s as the key", f.name, k)
			}
		}
		s := f.index[`instance="wide/m7"`]
		if first == "" {
			first = s.labels
		}
		if unsafe.StringData(s.labels) != unsafe.StringData(first) {
			t.Fatalf("family %s: a scope's series do not share its label string", f.name)
		}
	}
}

// TestRegistrationCostIsFlat: registering a monitor's series costs the same
// next to 64 k series as next to 1 k (a scan of the family made it 40 times
// dearer).
func TestRegistrationCostIsFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a timing comparison: not under -short or -race")
	}
	// per-monitor registration time while the registry grows from lo to hi
	// monitors (six series each).
	grow := func(r *Registry, lo, hi int) time.Duration {
		ids := make([]string, hi-lo)
		for i := range ids {
			ids[i] = "wide-" + strconv.Itoa((lo+i)%8) + "/m" + strconv.Itoa(lo+i)
		}
		start := time.Now()
		for _, id := range ids {
			registerMonitor(r, id)
		}
		return time.Since(start) / time.Duration(len(ids))
	}
	best := func(lo, hi int) time.Duration {
		d := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			r := NewRegistry()
			grow(r, 0, lo)
			d = min(d, grow(r, lo, hi))
		}
		return d
	}
	small := best(1000/6, 1000/6+500)   // at 1 k series
	large := best(64000/6, 64000/6+500) // at 64 k series
	t.Logf("per monitor: %v at 1 k series, %v at 64 k", small, large)
	if large > 3*small {
		t.Errorf("registering a monitor costs %v at 64 k series, %v at 1 k: more than 3 times", large, small)
	}
}

// TestRemoveRestoresThePage: once a scope's series are removed the page is
// byte for byte what it was before they were registered, families that came
// with them included; a registration under the same labels afterwards
// starts from zero; and the instruments handed out before still work.
func TestRemoveRestoresThePage(t *testing.T) {
	r := NewRegistry()
	r.Counter("volleyd_alerts_total", "h").Add(3)
	registerMonitor(r, "canary/m0")
	r.Counter("volley_sampler_observations_total", "h", "instance", "canary/m0").Add(5)
	r.GaugeVecFunc("vec", "h", "k", func() map[string]float64 { return map[string]float64{"a": 1} })
	page := func() string {
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	before, series := page(), liveSeries(t, r)

	registerMonitor(r, "tenant-7/m0")
	sc := r.With("instance", "tenant-7/m0")
	late := sc.Gauge("only_this_monitor", "A family that arrives with the monitor.")
	obsv := sc.Counter("volley_sampler_observations_total", "h")
	obsv.Add(41)
	if during := page(); !strings.Contains(during, `volley_sampler_observations_total{instance="tenant-7/m0"} 41`) ||
		!strings.Contains(during, "only_this_monitor") {
		t.Fatalf("the admitted monitor is not on the page:\n%s", during)
	}
	sc.Remove()
	if after := page(); after != before {
		t.Fatalf("page after admit and evict differs from the page before.\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got := liveSeries(t, r); got != series {
		t.Fatalf("%d series after admit and evict, %d before", got, series)
	}
	obsv.Inc()
	late.Set(2) // detached, still usable
	if obsv.Value() != 42 || late.Value() != 2 {
		t.Fatal("instruments stopped working once removed")
	}
	if again := sc.Counter("volley_sampler_observations_total", "h"); again == obsv || again.Value() != 0 {
		t.Fatalf("re-registration continues the removed counter (value %d)", again.Value())
	}
	sc.Remove()
	sc.Remove() // nothing left: a no-op
	Scope{}.Remove()
	if after := page(); after != before {
		t.Fatal("page after a second admit and evict differs from the page before")
	}
}

// TestAdmitEvictRoundsLeaveNothing: ten thousand admissions and evictions
// leave the series count where it started and the heap flat.
func TestAdmitEvictRoundsLeaveNothing(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		registerMonitor(r, "resident/m"+strconv.Itoa(i))
	}
	round := func(i int) {
		id := "tenant-" + strconv.Itoa(i) + "/m0"
		registerMonitor(r, id)
		r.With("instance", id).Remove()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for i := 0; i < 1000; i++ {
		round(i) // lets maps and slices reach their working size
	}
	series, before := liveSeries(t, r), heap()
	for i := 1000; i < 11000; i++ {
		round(i)
	}
	if got := liveSeries(t, r); got != series {
		t.Errorf("%d series after 10 000 admit/evict rounds, %d before", got, series)
	}
	// Each round registers ~900 B; leaking even one series a round would
	// show as half a megabyte.
	if after := heap(); after > before+256<<10 {
		t.Errorf("HeapInuse grew from %d to %d over 10 000 admit/evict rounds", before, after)
	}
}
