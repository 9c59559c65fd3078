package obs

import (
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
)

// chunkSize is the capacity of the buffer a scrape renders into. The buffer
// goes to the client once it is half full, so the lines of one more series
// fit in what is left and it never grows.
const chunkSize = 64 << 10

// scrape is the state of one WritePrometheus call, kept by the registry
// between scrapes so that a scrape allocates nothing that grows with the
// page.
type scrape struct {
	buf []byte

	// The cursor: fam is the sequence number of the family being rendered (the
	// one to take up next, if that one is gone) and next that of the first of
	// its series not yet rendered. Sequence numbers only ever ascend along
	// Registry.order and family.series, so the place is found again by
	// bisection whatever was registered or removed while the lock was away.
	fam, next uint64
	// limit is the registry's sequence number when the scrape began. Nothing
	// registered later is part of this page, so a name removed and registered
	// again meanwhile cannot appear on it twice.
	limit uint64

	// A GaugeVecFunc family in progress: its samples are read once, then
	// rendered from here, keys[at:] still to come, across as many chunks as
	// they take. label is scratch for one sample's rendered label.
	vec   map[string]float64
	keys  []string
	at    int
	label []byte
}

// full reports whether the buffer should be written out before more is
// rendered.
func (sc *scrape) full() bool { return len(sc.buf) >= chunkSize/2 }

// appendFloat renders a sample value the way Prometheus text format
// expects: shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func appendFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// renderLe renders the `le="bound"` label of each of a histogram's buckets.
func renderLe(bounds []float64) [][]byte {
	le := make([][]byte, len(bounds))
	for i, b := range bounds {
		le[i] = append(appendFloat([]byte(`le="`), b), '"')
	}
	return le
}

var leInf = []byte(`le="+Inf"`)

// appendName starts one sample line, `name+suffix{labels,extra} `, up to the
// value; extra is one more rendered label (a histogram's le, a vec's key) or
// empty.
func appendName(buf []byte, name, suffix, labels string, extra []byte) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" || len(extra) > 0 {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if labels != "" && len(extra) > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, extra...)
		buf = append(buf, '}')
	}
	return append(buf, ' ')
}

func appendUintSample(buf []byte, name, suffix, labels string, extra []byte, v uint64) []byte {
	buf = appendName(buf, name, suffix, labels, extra)
	buf = strconv.AppendUint(buf, v, 10)
	return append(buf, '\n')
}

func appendFloatSample(buf []byte, name, suffix, labels string, extra []byte, v float64) []byte {
	buf = appendName(buf, name, suffix, labels, extra)
	buf = appendFloat(buf, v)
	return append(buf, '\n')
}

// appendHeader renders a family's HELP and TYPE lines.
func appendHeader(buf []byte, f *family) []byte {
	kind := "gauge"
	switch f.kind {
	case kindCounter, kindCounterFunc:
		kind = "counter"
	case kindHistogram:
		kind = "histogram"
	}
	buf = append(buf, "# HELP "...)
	buf = append(buf, f.name...)
	buf = append(buf, ' ')
	buf = append(buf, f.help...)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, f.name...)
	buf = append(buf, ' ')
	buf = append(buf, kind...)
	return append(buf, '\n')
}

// appendSeries renders the sample lines of one series.
func appendSeries(buf []byte, f *family, s *series) []byte {
	switch f.kind {
	case kindCounter:
		return appendUintSample(buf, f.name, "", s.labels, nil, s.inst.(*Counter).Value())
	case kindGauge:
		return appendFloatSample(buf, f.name, "", s.labels, nil, s.inst.(*Gauge).Value())
	case kindGaugeFunc, kindCounterFunc:
		return appendFloatSample(buf, f.name, "", s.labels, nil, s.inst.(func() float64)())
	}
	h := s.inst.(*Histogram)
	le := f.le
	if !slices.Equal(h.bounds, f.leBounds) {
		le = renderLe(h.bounds) // not the bounds the family's first series came with
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		buf = appendUintSample(buf, f.name, "_bucket", s.labels, le[i], cum)
	}
	count := h.Count()
	buf = appendUintSample(buf, f.name, "_bucket", s.labels, leInf, count)
	buf = appendFloatSample(buf, f.name, "_sum", s.labels, nil, h.Sum())
	return appendUintSample(buf, f.name, "_count", s.labels, nil, count)
}

// render fills the scrape's buffer from the cursor on, under the registry's
// lock, and reports whether the page is complete. It returns early, the
// cursor on what comes next, once the buffer is full.
func (r *Registry) render(sc *scrape) (done bool) {
	r.mu.Lock()
	defer r.mu.Unlock() // deferred: a scrape-time function may panic
	i := sort.Search(len(r.order), func(i int) bool { return r.order[i].seq >= sc.fam })
	for ; i < len(r.order) && r.order[i].seq <= sc.limit; i++ {
		f := r.order[i]
		if f.seq != sc.fam || sc.next == 0 {
			sc.fam, sc.next = f.seq, f.seq+1 // a family's series all come after it
			sc.keys, sc.at = sc.keys[:0], 0
			sc.buf = appendHeader(sc.buf, f)
			if f.vecFn != nil {
				sc.vec = f.vecFn()
				for k := range sc.vec {
					sc.keys = append(sc.keys, k)
				}
				slices.Sort(sc.keys)
			}
		}
		for sc.at < len(sc.keys) {
			k := sc.keys[sc.at]
			sc.at++
			sc.label = strconv.AppendQuote(append(append(sc.label[:0], f.vecLabel...), '='), k)
			sc.buf = appendFloatSample(sc.buf, f.name, "", "", sc.label, sc.vec[k])
			if sc.full() {
				return false
			}
		}
		j := sort.Search(len(f.series), func(j int) bool { return f.series[j].seq >= sc.next })
		for ; j < len(f.series) && f.series[j].seq <= sc.limit; j++ {
			s := f.series[j]
			if s.inst == nil {
				continue // removed, not yet dropped
			}
			sc.buf = appendSeries(sc.buf, f, s)
			sc.next = s.seq + 1
			if sc.full() {
				return false
			}
		}
		sc.fam, sc.next = f.seq+1, 0
	}
	return true
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), in registration order. Nil registries
// render nothing.
//
// The page is rendered a chunk at a time under the registry's lock and each
// chunk written with the lock released: a client that stops reading holds up
// its own scrape and nothing else. Registrations and removals made while a
// chunk is on its way out are honoured from the next one: a series is on
// the page at most once, whole, and one registered after the scrape began is
// left for the next scrape. Scrape-time functions still run under the lock.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	// The registry keeps one idle scrape, whichever goroutine, P or GC cycle
	// the next scrape comes on: only a scrape that overlaps another builds
	// its own.
	sc := r.idle.Swap(nil)
	if sc == nil {
		sc = &scrape{buf: make([]byte, 0, chunkSize)}
	}
	*sc = scrape{buf: sc.buf[:0], keys: sc.keys[:0], label: sc.label}
	r.mu.Lock()
	sc.limit = r.seq
	r.mu.Unlock()
	for {
		done := r.render(sc)
		if _, err := w.Write(sc.buf); err != nil || done {
			break
		}
		sc.buf = sc.buf[:0]
	}
	sc.vec = nil
	if cap(sc.buf) == chunkSize {
		r.idle.CompareAndSwap(nil, sc)
	}
}

// Handler serves WritePrometheus over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
