package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// truthServer is the harness side of every http:// source. It owns the
// clock: probe i reads values[⌊(now−epoch)/probePeriod⌋], so the harness
// knows when every violation began without asking the daemon. It also stamps
// every GET, which is how ticks are seen from outside: a canary
// GET is one completed tick, and the probe GETs of one tick arrive as a
// burst.
type truthServer struct {
	probes []probe
	epoch  time.Time
	ln     net.Listener
	srv    *http.Server
	done   chan struct{}

	mu        sync.Mutex
	canary    map[int][]time.Duration // canary index → GET arrivals since epoch
	probeGets []time.Duration
	bad       int // GETs that could not be answered (an agent error at the daemon)
	meters    map[int]*meter
}

// mark is a reading taken at one canary GET: when it arrived and what its
// daemon had used by then.
type mark struct {
	at time.Duration
	procStat
}

// meter marks every every-th GET of one canary, from inside the handler, so
// each reading is taken on an exact tick count.
type meter struct {
	canary int
	every  int
	read   func() (procStat, error)
	seen   int
	marks  []mark
	err    error
}

// startMeter begins marking at the canary's next GET.
func (ts *truthServer) startMeter(canary, every int, read func() (procStat, error)) *meter {
	m := &meter{canary: canary, every: every, read: read}
	ts.mu.Lock()
	ts.meters[canary] = m
	ts.mu.Unlock()
	return m
}

// stopMeter ends the marking and returns the marks taken.
func (ts *truthServer) stopMeter(m *meter) ([]mark, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	delete(ts.meters, m.canary)
	return m.marks, m.err
}

func startTruthServer(probes []probe) (*truthServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("truth server: %w", err)
	}
	ts := &truthServer{probes: probes, epoch: time.Now(), ln: ln, done: make(chan struct{}), canary: make(map[int][]time.Duration), meters: make(map[int]*meter)}
	mux := http.NewServeMux()
	mux.HandleFunc("/s/", ts.serveProbe)
	mux.HandleFunc("/c/", ts.serveCanary)
	ts.srv = &http.Server{Handler: mux}
	go func() {
		defer close(ts.done)
		_ = ts.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return ts, nil
}

func (ts *truthServer) url() string { return "http://" + ts.ln.Addr().String() }

// close stops the server and waits for its accept loop to exit.
func (ts *truthServer) close() {
	_ = ts.srv.Close()
	<-ts.done
}

func (ts *truthServer) since() time.Duration { return time.Since(ts.epoch) }

func (ts *truthServer) fail(w http.ResponseWriter) {
	ts.mu.Lock()
	ts.bad++
	ts.mu.Unlock()
	w.WriteHeader(http.StatusNotFound)
}

func (ts *truthServer) serveProbe(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/s/"))
	if err != nil || i < 0 || i >= len(ts.probes) {
		ts.fail(w)
		return
	}
	now := ts.since()
	vals := ts.probes[i].values
	v := vals[int(now/probePeriod)%len(vals)]
	ts.mu.Lock()
	ts.probeGets = append(ts.probeGets, now)
	ts.mu.Unlock()
	_, _ = w.Write(strconv.AppendFloat(make([]byte, 0, 24), v, 'g', -1, 64))
}

func (ts *truthServer) serveCanary(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/c/"))
	if err != nil || i < 0 {
		ts.fail(w)
		return
	}
	now := ts.since()
	ts.mu.Lock()
	ts.canary[i] = append(ts.canary[i], now)
	if m := ts.meters[i]; m != nil && m.err == nil {
		if m.seen%m.every == 0 {
			ps, err := m.read()
			m.marks, m.err = append(m.marks, mark{at: now, procStat: ps}), err
		}
		m.seen++
	}
	ts.mu.Unlock()
	_, _ = w.Write([]byte("0"))
}

// canaryCount is the number of ticks canary i has seen so far.
func (ts *truthServer) canaryCount(i int) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.canary[i])
}

// canaryTimes and probeTimes copy the GET stamps that fall in [from, to).
func (ts *truthServer) canaryTimes(i int, from, to time.Duration) []time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return within(ts.canary[i], from, to)
}

func (ts *truthServer) probeTimes(from, to time.Duration) []time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return within(ts.probeGets, from, to)
}

func (ts *truthServer) badGets() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.bad
}

// within returns the stamps in [from, to). Handlers run concurrently, so the
// log is only nearly sorted; the copy is sorted.
func within(times []time.Duration, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for _, t := range times {
		if t >= from && t < to {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// episode is one ground-truth violation: a maximal run of windows whose
// value exceeds the threshold. Times are offsets from the truth epoch.
type episode struct {
	start, end time.Duration
	windows    int
}

// episodes extracts the complete violation runs among the absolute windows
// [from, to) of a series that wraps around after len(values) windows. Runs
// touching either edge are dropped: their true start or end is unknown.
func episodes(values []float64, threshold float64, period time.Duration, from, to int) []episode {
	var out []episode
	runStart := -1
	for w := from; w < to; w++ {
		hot := values[w%len(values)] > threshold
		switch {
		case hot && runStart < 0:
			runStart = w
		case !hot && runStart >= 0:
			if runStart > from {
				out = append(out, episode{
					start:   time.Duration(runStart) * period,
					end:     time.Duration(w) * period,
					windows: w - runStart,
				})
			}
			runStart = -1
		}
	}
	return out
}

// hit is one detected episode: when it began and when its first
// matching alert line was stamped.
type hit struct {
	start, alert time.Duration
}

// matchEpisodes pairs each episode with the first alert of the same task
// that falls between one tick before its start and maxInterval ticks after
// its end. It returns every detected episode and, among episodes of at least
// two windows, how many there were and how many went without an alert.
// alerts must be sorted.
func matchEpisodes(eps []episode, alerts []time.Duration, tick time.Duration, maxInterval int) (hits []hit, long, missedLong int) {
	for _, e := range eps {
		lo, hi := e.start-tick, e.end+time.Duration(maxInterval)*tick
		i := sort.Search(len(alerts), func(i int) bool { return alerts[i] >= lo })
		found := i < len(alerts) && alerts[i] <= hi
		if found {
			hits = append(hits, hit{start: e.start, alert: alerts[i]})
		}
		if e.windows >= 2 {
			long++
			if !found {
				missedLong++
			}
		}
	}
	return hits, long, missedLong
}

// countWithin is the number of sorted stamps in [from, to).
func countWithin(stamps []time.Duration, from, to time.Duration) int {
	lo := sort.Search(len(stamps), func(i int) bool { return stamps[i] >= from })
	hi := sort.Search(len(stamps), func(i int) bool { return stamps[i] >= to })
	if hi < lo {
		return 0
	}
	return hi - lo
}

// nearViolation reports whether any window overlapping [at−back, at+fwd] of
// the wrapping series is a violation: an alert with none nearby was raised
// on a value the source never served.
func nearViolation(values []float64, threshold float64, period, at, back, fwd time.Duration) bool {
	lo := int((at - back) / period)
	if at < back {
		lo = 0
	}
	for w := lo; w <= int((at+fwd)/period); w++ {
		if values[w%len(values)] > threshold {
			return true
		}
	}
	return false
}

// burstSpans groups sorted GET stamps into bursts separated by more than gap
// and returns each burst's first→last span: the time one tick spent reading
// agents. Single-GET bursts have no span and are skipped.
func burstSpans(times []time.Duration, gap time.Duration) []time.Duration {
	var out []time.Duration
	for i := 0; i < len(times); {
		j := i
		for j+1 < len(times) && times[j+1]-times[j] <= gap {
			j++
		}
		if j > i {
			out = append(out, times[j]-times[i])
		}
		i = j + 1
	}
	return out
}

// gaps returns the differences between consecutive stamps: for a canary in a
// closed loop, the duration of each tick.
func gaps(times []time.Duration) []time.Duration {
	if len(times) < 2 {
		return nil
	}
	out := make([]time.Duration, len(times)-1)
	for i := range out {
		out[i] = times[i+1] - times[i]
	}
	return out
}

// calObs is one calibration alert: the daemon's wall time and the value its
// calibration monitor had just sampled.
type calObs struct {
	at    time.Time
	value float64
}

// estimateEpoch dates the instant a daemon's workload: sources count their
// windows from. An observation of window i at time t says the epoch lies in
// (t−(i+1)·period, t−i·period], less the small delay between the sample and
// the alert line; with ticks at every phase of a window the smallest upper
// end is the epoch to within that delay. The series wraps, so each upper end
// is taken in the one wrap that puts it at or after notBefore (the daemon's
// exec time), which is unambiguous while set-up is shorter than a wrap.
func estimateEpoch(obs []calObs, index map[float64]int, period time.Duration, windows int, notBefore time.Time) (time.Time, error) {
	wrap := time.Duration(windows) * period
	var epoch time.Time
	for _, o := range obs {
		i, ok := index[o.value]
		if !ok {
			continue
		}
		upper := o.at.Add(-time.Duration(i) * period)
		upper = upper.Add(-upper.Sub(notBefore) / wrap * wrap)
		if epoch.IsZero() || upper.Before(epoch) {
			epoch = upper
		}
	}
	if epoch.IsZero() {
		return epoch, fmt.Errorf("no calibration alert names a window of the calibration series")
	}
	return epoch, nil
}
