package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"volley/internal/alloctest"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses Prometheus text format (version 0.0.4) back into
// samples — the edge-case tests below assert on parsed values, never on
// raw strings, so they hold under any valid re-rendering.
func parseProm(t *testing.T, text string) []promSample {
	t.Helper()
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name, labelPart, valPart string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced braces in %q", line)
			}
			name, labelPart, valPart = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("malformed sample line %q", line)
			}
			name, valPart = fields[0], fields[1]
		}
		v, err := strconv.ParseFloat(valPart, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		labels := make(map[string]string)
		for rest := labelPart; rest != ""; {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				t.Fatalf("label without '=' in %q", line)
			}
			key := rest[:eq]
			q, err := strconv.QuotedPrefix(rest[eq+1:])
			if err != nil {
				t.Fatalf("unquotable label value in %q: %v", line, err)
			}
			val, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("label value %q in %q: %v", q, line, err)
			}
			labels[key] = val
			rest = strings.TrimPrefix(rest[eq+1+len(q):], ",")
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out
}

// find returns the samples with the given metric name.
func find(samples []promSample, name string) []promSample {
	var out []promSample
	for _, s := range samples {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestPromSpecialFloatGauges: NaN and ±Inf gauge values must render in
// the spelled-out form the format requires and parse back as the same
// special values.
func TestPromSpecialFloatGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g_nan", "h").Set(math.NaN())
	r.Gauge("g_pinf", "h").Set(math.Inf(1))
	r.Gauge("g_ninf", "h").Set(math.Inf(-1))
	r.Gauge("g_tiny", "h").Set(5e-324) // smallest denormal round-trips
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples := parseProm(t, buf.String())

	if s := find(samples, "g_nan"); len(s) != 1 || !math.IsNaN(s[0].value) {
		t.Fatalf("g_nan = %+v", s)
	}
	if s := find(samples, "g_pinf"); len(s) != 1 || !math.IsInf(s[0].value, 1) {
		t.Fatalf("g_pinf = %+v", s)
	}
	if s := find(samples, "g_ninf"); len(s) != 1 || !math.IsInf(s[0].value, -1) {
		t.Fatalf("g_ninf = %+v", s)
	}
	if s := find(samples, "g_tiny"); len(s) != 1 || s[0].value != 5e-324 {
		t.Fatalf("g_tiny = %+v", s)
	}
}

// TestPromHistogramInvariants: bucket lines must be cumulative and
// non-decreasing, the +Inf bucket must equal _count, and _sum/_count must
// agree with the observations — including observations beyond the last
// finite bound and at exact bucket boundaries.
func TestPromHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "h", []float64{1, 2, 5})
	obs := []float64{0.5, 1, 1.5, 2, 4, 100, math.Inf(1)} // boundary hits and a +Inf-bucket pair
	var sum float64
	for _, v := range obs {
		h.Observe(v)
		sum += v
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples := parseProm(t, buf.String())

	buckets := find(samples, "lat_bucket")
	if len(buckets) != 4 { // 3 finite bounds + le="+Inf"
		t.Fatalf("bucket lines = %d, want 4: %+v", len(buckets), buckets)
	}
	// The le labels parse as floats and arrive in ascending order.
	prevLe := math.Inf(-1)
	prevCum := -1.0
	for _, b := range buckets {
		le, err := strconv.ParseFloat(b.labels["le"], 64)
		if err != nil {
			t.Fatalf("le label %q: %v", b.labels["le"], err)
		}
		if le <= prevLe {
			t.Fatalf("le %v not ascending after %v", le, prevLe)
		}
		if b.value < prevCum {
			t.Fatalf("bucket counts not cumulative: %v after %v", b.value, prevCum)
		}
		prevLe, prevCum = le, b.value
	}
	if !math.IsInf(prevLe, 1) {
		t.Fatalf("last bucket le = %v, want +Inf", prevLe)
	}

	count := find(samples, "lat_count")
	if len(count) != 1 || count[0].value != float64(len(obs)) {
		t.Fatalf("lat_count = %+v, want %d", count, len(obs))
	}
	if prevCum != count[0].value {
		t.Fatalf("+Inf bucket %v != count %v", prevCum, count[0].value)
	}
	wantCum := []float64{2, 4, 5, 7} // ≤1, ≤2, ≤5, +Inf
	for i, b := range buckets {
		if b.value != wantCum[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, b.value, wantCum[i])
		}
	}
	s := find(samples, "lat_sum")
	if len(s) != 1 || !math.IsInf(s[0].value, 1) { // one +Inf observation dominates
		t.Fatalf("lat_sum = %+v", s)
	}
}

// TestPromLabelEscaping: label values holding quotes, backslashes,
// newlines and non-ASCII must escape on the wire and parse back verbatim.
func TestPromLabelEscaping(t *testing.T) {
	hostile := "he said \"hi\"\\\npath=C:\\tmp\tπ≈3"
	r := NewRegistry()
	r.Gauge("g", "h", "k", hostile).Set(1)
	r.Counter("c", "h", "task", `a="b",c`).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	// Every exposition line must stay a single physical line.
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if line == "" {
			t.Fatalf("raw newline leaked into exposition:\n%s", buf.String())
		}
	}
	samples := parseProm(t, buf.String())
	if s := find(samples, "g"); len(s) != 1 || s[0].labels["k"] != hostile {
		t.Fatalf("hostile label round trip = %+v, want %q", s, hostile)
	}
	if s := find(samples, "c"); len(s) != 1 || s[0].labels["task"] != `a="b",c` {
		t.Fatalf("comma/quote label round trip = %+v", s)
	}
}

// TestPromGaugeVecFuncEscaping: dynamic vec keys go through the same
// escaping as static labels.
func TestPromGaugeVecFuncEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVecFunc("vec", "h", "key", func() map[string]float64 {
		return map[string]float64{"plain": 1, "with \"quotes\"\n": 2}
	})
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples := find(parseProm(t, buf.String()), "vec")
	if len(samples) != 2 {
		t.Fatalf("vec samples = %+v", samples)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.labels["key"]] = s.value
	}
	if got["plain"] != 1 || got["with \"quotes\"\n"] != 2 {
		t.Fatalf("vec round trip = %v", got)
	}
}

// TestBuildInfoMetrics: volley_build_info carries version/goversion labels
// with a constant value of 1, and volley_uptime_seconds advances.
func TestBuildInfoMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, time.Now().Add(-3*time.Second))
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples := parseProm(t, buf.String())

	bi := find(samples, "volley_build_info")
	if len(bi) != 1 || bi[0].value != 1 {
		t.Fatalf("volley_build_info = %+v", bi)
	}
	if bi[0].labels["version"] == "" || !strings.HasPrefix(bi[0].labels["goversion"], "go") {
		t.Fatalf("build info labels = %v", bi[0].labels)
	}
	up := find(samples, "volley_uptime_seconds")
	if len(up) != 1 || up[0].value < 2.5 {
		t.Fatalf("volley_uptime_seconds = %+v, want ≥ 2.5", up)
	}
	// Re-registering (e.g. two daemons sharing a registry in tests) must
	// not panic or duplicate families.
	RegisterBuildInfo(r, time.Now())
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if got := len(find(parseProm(t, buf2.String()), "volley_build_info")); got != 1 {
		t.Fatalf("build info series after re-register = %d", got)
	}
}

// oracleSample and oraclePrometheus are the renderer WritePrometheus had
// before it rendered into a chunk buffer — one fmt.Fprintf per line — kept as
// the reference the page must match byte for byte.
func oracleSample(w io.Writer, name, labels, extra, value string) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", name, value)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, extra, value)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, value)
	}
}

func oracleFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func oraclePrometheus(r *Registry, w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.order {
		kind := "gauge"
		if f.kind == kindCounter || f.kind == kindCounterFunc {
			kind = "counter"
		}
		if f.kind == kindHistogram {
			kind = "histogram"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, kind)
		live := slices.DeleteFunc(slices.Clone(f.series), func(s *series) bool { return s.inst == nil })
		switch f.kind {
		case kindCounter:
			for _, s := range live {
				oracleSample(w, f.name, s.labels, "", strconv.FormatUint(s.inst.(*Counter).Value(), 10))
			}
		case kindGauge:
			for _, s := range live {
				oracleSample(w, f.name, s.labels, "", oracleFloat(s.inst.(*Gauge).Value()))
			}
		case kindGaugeFunc, kindCounterFunc:
			for _, s := range live {
				oracleSample(w, f.name, s.labels, "", oracleFloat(s.inst.(func() float64)()))
			}
		case kindGaugeVecFunc:
			vals := f.vecFn()
			keys := make([]string, 0, len(vals))
			for k := range vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				oracleSample(w, f.name, f.vecLabel+"="+strconv.Quote(k), "", oracleFloat(vals[k]))
			}
		case kindHistogram:
			for _, s := range live {
				h := s.inst.(*Histogram)
				var cum uint64
				for i, b := range h.bounds {
					cum += h.buckets[i].Load()
					oracleSample(w, f.name+"_bucket", s.labels,
						`le=`+strconv.Quote(oracleFloat(b)), strconv.FormatUint(cum, 10))
				}
				oracleSample(w, f.name+"_bucket", s.labels, `le="+Inf"`,
					strconv.FormatUint(h.Count(), 10))
				oracleSample(w, f.name+"_sum", s.labels, "", oracleFloat(h.Sum()))
				oracleSample(w, f.name+"_count", s.labels, "", strconv.FormatUint(h.Count(), 10))
			}
		}
	}
}

// goldenRegistry registers one of everything the renderer has a case for:
// every kind, labeled and not, the special floats, hostile label values,
// histograms over the family's bounds, over other bounds and over none, and
// enough series that the page takes several chunks.
func goldenRegistry(wide int) *Registry {
	r := NewRegistry()
	r.Counter("c_plain_total", "A counter.").Add(7)
	r.Counter("c_labeled_total", "Counters, labeled.", "instance", "a", "zone", "z1").Add(1 << 40)
	r.Counter("c_labeled_total", "Counters, labeled.", "instance", "he said \"hi\"\\\n\tπ").Inc()
	r.Gauge("g_plain", "A gauge.").Set(-2.5e-7)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, 0, math.Copysign(0, -1), 1e21, 123456789} {
		r.Gauge("g_special", "Gauges at the edges of float64.", "case", strconv.Itoa(i)).Set(v)
	}
	r.GaugeFunc("gf", "A gauge function.", func() float64 { return 0.1 + 0.2 })
	r.GaugeFunc("gf", "A gauge function.", func() float64 { return math.NaN() }, "k", "v")
	r.CounterFunc("cf_total", "A counter function.", func() float64 { return 1e9 }, "peer", "a:1")
	r.GaugeVecFunc("vec", "A vec.", "key", func() map[string]float64 {
		return map[string]float64{"b": 1, "a": math.Inf(1), "with \"quotes\"\n": -3, "": 0}
	})
	r.GaugeVecFunc("vec_empty", "A vec with nothing in it.", "key", func() map[string]float64 { return nil })
	h := r.Histogram("h_dist", "Histograms.", DefBoundBuckets, "instance", "m0")
	for _, v := range []float64{1e-7, 1e-6, 0.003, 0.5, 1, 7, math.Inf(1)} {
		h.Observe(v)
	}
	r.Histogram("h_dist", "Histograms.", DefBoundBuckets) // unlabeled, empty
	r.Histogram("h_dist", "Histograms.", []float64{1, 2.5}, "instance", "other-bounds").Observe(2)
	r.Histogram("h_dist", "Histograms.", nil, "instance", "no-bounds").Observe(-4)
	for i := 0; i < wide; i++ {
		sc := r.With("instance", fmt.Sprintf("wide-%d/m%d", i%8, i))
		sc.Counter("w_observations_total", "Wide counters.").Add(uint64(i))
		sc.Gauge("w_bound", "Wide gauges.").Set(1 / float64(i+1))
		sc.Histogram("w_bound_dist", "Wide histograms.", DefBoundBuckets).Observe(1 / float64(i+1))
	}
	return r
}

// TestPrometheusPageMatchesOracle: the page is byte for byte what the
// fmt-based renderer produced, for a page of one chunk and for one of many.
func TestPrometheusPageMatchesOracle(t *testing.T) {
	for _, wide := range []int{0, 3, 1000} {
		r := goldenRegistry(wide)
		r.With("instance", "wide-1/m1").Remove() // marked, not yet dropped: skipped
		// A bound of +Inf is legal and renders a second le="+Inf" line.
		r.Histogram("h_dist", "Histograms.", []float64{math.Inf(-1), 0, math.Inf(1)}, "instance", "inf-bounds").Observe(0)
		var got, want bytes.Buffer
		r.WritePrometheus(&got)
		oraclePrometheus(r, &want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			a, b := got.String(), want.String()
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			lo := max(0, i-200)
			t.Fatalf("wide=%d: pages differ at byte %d of %d/%d:\n got …%q\nwant …%q",
				wide, i, len(a), len(b), a[lo:min(len(a), i+100)], b[lo:min(len(b), i+100)])
		}
		if wide == 1000 && got.Len() < 8*chunkSize {
			t.Fatalf("the wide page is %d bytes: too small to span chunks", got.Len())
		}
	}
}

// chunkCounter counts the writes a page arrives in and the longest of them.
type chunkCounter struct{ writes, longest int }

func (c *chunkCounter) Write(p []byte) (int, error) {
	c.writes++
	c.longest = max(c.longest, len(p))
	return len(p), nil
}

// TestScrapeAllocsDoNotGrowWithThePage: a scrape renders into one kept
// buffer of chunkSize, so neither what it allocates nor the largest write
// depends on how many series there are.
func TestScrapeAllocsDoNotGrowWithThePage(t *testing.T) {
	var allocs [2]float64
	for i, wide := range []int{10, 3000} {
		r := goldenRegistry(wide)
		var cc chunkCounter
		r.WritePrometheus(&cc) // warms the pool
		allocs[i] = testing.AllocsPerRun(5, func() { r.WritePrometheus(&cc) })
		if cc.longest > chunkSize {
			t.Errorf("wide=%d: a write of %d bytes, chunks are bounded by %d", wide, cc.longest, chunkSize)
		}
		if wide == 3000 && cc.writes < 3*10 {
			t.Errorf("wide=%d: the pages took %d writes, want several each", wide, cc.writes)
		}
	}
	// What is left is the vec families' maps and the off-family histogram
	// bounds of goldenRegistry, the same at either size.
	if allocs[1] > allocs[0] {
		t.Errorf("a scrape of 9000 more series allocates %.0f times, of the small registry %.0f", allocs[1], allocs[0])
	}
	if allocs[0] > 12 {
		t.Errorf("a scrape allocates %.0f times, want a handful", allocs[0])
	}
}

// TestScrapeAllocsNoChunkAfterCollections: the state a scrape leaves behind is
// the registry's, not a sync.Pool's, which keeps what is put back only on the
// P that put it and drops it after two collections. A scrape made from
// another goroutine after two collections renders into the chunk the last
// one left instead of allocating chunkSize anew.
//
// The measurement is made five times and the least is judged
// (alloctest.Least): a pool that drops its chunk allocates it on every
// round.
func TestScrapeAllocsNoChunkAfterCollections(t *testing.T) {
	r := goldenRegistry(100)
	r.WritePrometheus(io.Discard)
	collect := func() {
		runtime.GC()
		runtime.GC()
	}
	least, _ := alloctest.Least(5, collect, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.WritePrometheus(io.Discard)
		}()
		<-done
	})
	t.Logf("a scrape after two collections allocates %d B (least of 5)", least)
	if least >= 4<<10 {
		t.Errorf("a scrape after two collections allocates %d B, want < 4 KiB (a chunk is %d)", least, chunkSize)
	}
}

// gatedWriter blocks every Write until released, and says when the first
// one has arrived.
type gatedWriter struct {
	buf     bytes.Buffer
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{arrived: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.arrived) })
	<-g.release
	return g.buf.Write(p)
}

// TestStalledScrapeHoldsNoLock: while a scrape waits on its client the
// registry registers, removes and serves other scrapes; and what changed
// meanwhile shows on the stalled page at most once, in whole lines.
func TestStalledScrapeHoldsNoLock(t *testing.T) {
	r := goldenRegistry(1000)
	gw := newGatedWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.WritePrometheus(gw)
	}()
	<-gw.arrived // the first chunk is rendered and its write is stuck

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// Series of families the scrape has yet to reach come and go, one
		// name is removed and registered again, and a new family arrives.
		for i := 0; i < 1000; i += 2 {
			r.With("instance", fmt.Sprintf("wide-%d/m%d", i%8, i)).Remove()
		}
		for i := 0; i < 100; i++ {
			sc := r.With("instance", fmt.Sprintf("late-%d", i))
			sc.Counter("w_observations_total", "Wide counters.")
			sc.Histogram("w_bound_dist", "Wide histograms.", DefBoundBuckets)
			sc.Gauge("late_gauge", "Registered during the scrape.")
		}
		r.With("instance", "wide-1/m1").Remove()
		r.With("instance", "wide-1/m1").Counter("w_observations_total", "Wide counters.")
		var other bytes.Buffer
		r.WritePrometheus(&other)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("registrations and a second scrape did not finish while a scrape was stalled")
	}
	close(gw.release)
	<-done

	seen := map[string]bool{}
	page := gw.buf.String()
	if !strings.HasSuffix(page, "\n") {
		t.Fatalf("the page ends in a torn line: …%q", page[max(0, len(page)-80):])
	}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		key, _, _ := strings.Cut(line, "} ")
		if strings.HasPrefix(line, "#") {
			key = line
		}
		if seen[key] {
			t.Fatalf("on the page twice: %q", line)
		}
		seen[key] = true
	}
	samples := parseProm(t, page) // fails on any malformed line
	for _, s := range samples {
		if strings.HasPrefix(s.labels["instance"], "late-") || s.name == "late_gauge" {
			t.Fatalf("a series registered after the scrape began is on its page: %+v", s)
		}
	}
	// Removed before the scrape reached them: gone. Kept: there.
	if n := len(find(samples, "w_bound")); n != 500-1 {
		t.Errorf("w_bound has %d series on the stalled page, want the 499 that were neither removed nor replaced", n)
	}
}
