package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

const ms1 = time.Millisecond

func TestEpisodesDropsRunsTouchingTheEdges(t *testing.T) {
	//            0  1  2  3  4  5  6  7  8  9
	v := []float64{9, 0, 0, 9, 9, 0, 9, 0, 9, 9}
	got := episodes(v, 5, 10*ms1, 0, 10)
	want := []episode{
		{start: 30 * ms1, end: 50 * ms1, windows: 2},
		{start: 60 * ms1, end: 70 * ms1, windows: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("episodes = %v, want %v (the runs at windows 0 and 8-9 touch an edge)", got, want)
	}
}

func TestEpisodesWrapAroundTheSeries(t *testing.T) {
	v := []float64{0, 9, 9, 0}
	// Absolute windows 4..11 replay the series twice.
	got := episodes(v, 5, 10*ms1, 4, 12)
	want := []episode{
		{start: 50 * ms1, end: 70 * ms1, windows: 2},
		{start: 90 * ms1, end: 110 * ms1, windows: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("episodes = %v, want %v", got, want)
	}
}

func TestMatchEpisodes(t *testing.T) {
	eps := []episode{
		{start: 100 * ms1, end: 120 * ms1, windows: 2}, // alert 5 ms in
		{start: 300 * ms1, end: 310 * ms1, windows: 1}, // short, missed: not counted as long
		{start: 500 * ms1, end: 540 * ms1, windows: 4}, // long, first alert only after the allowed tail
		{start: 700 * ms1, end: 720 * ms1, windows: 2}, // alert one tick early (clock slop) still matches
	}
	alerts := []time.Duration{105 * ms1, 110 * ms1, 600 * ms1, 695 * ms1}
	hits, long, missed := matchEpisodes(eps, alerts, 5*ms1, 8) // tail = 8 ticks = 40 ms
	if want := []hit{{100 * ms1, 105 * ms1}, {700 * ms1, 695 * ms1}}; !reflect.DeepEqual(hits, want) {
		t.Errorf("detections = %v, want %v", hits, want)
	}
	if long != 3 || missed != 1 {
		t.Errorf("long, missed = %d, %d, want 3, 1", long, missed)
	}
}

func TestCountWithin(t *testing.T) {
	ticks := []time.Duration{10 * ms1, 20 * ms1, 30 * ms1, 40 * ms1}
	cases := []struct {
		from, to time.Duration
		want     int
	}{
		{12 * ms1, 35 * ms1, 2}, // ticks at 20 and 30
		{20 * ms1, 30 * ms1, 1}, // from is inclusive, to exclusive
		{21 * ms1, 29 * ms1, 0},
		{35 * ms1, 12 * ms1, 0}, // an alert stamped before the onset
		{0, 100 * ms1, 4},
	}
	for _, c := range cases {
		if got := countWithin(ticks, c.from, c.to); got != c.want {
			t.Errorf("countWithin(%v, %v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestNearViolation(t *testing.T) {
	v := []float64{0, 0, 9, 0, 0, 0, 0, 0}
	period := 10 * ms1
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{25 * ms1, true},   // inside the violating window
		{55 * ms1, true},   // 25 ms after it ended, within back=30ms
		{70 * ms1, false},  // too late
		{5 * ms1, false},   // before it, beyond fwd=5ms
		{16 * ms1, true},   // fwd reaches window 2
		{105 * ms1, true},  // second lap: window 10 = index 2
		{135 * ms1, true},  // 25 ms after the second lap's violation
		{155 * ms1, false}, // too late again
	}
	for _, c := range cases {
		if got := nearViolation(v, 5, period, c.at, 30*ms1, 5*ms1); got != c.want {
			t.Errorf("nearViolation(at=%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestBurstSpansAndGaps(t *testing.T) {
	stamps := []time.Duration{0, 1 * ms1, 3 * ms1 /* gap */, 20 * ms1 /* lone */, 40 * ms1, 42 * ms1}
	if got, want := burstSpans(stamps, 5*ms1), []time.Duration{3 * ms1, 2 * ms1}; !reflect.DeepEqual(got, want) {
		t.Errorf("burstSpans = %v, want %v", got, want)
	}
	if got, want := gaps([]time.Duration{10 * ms1, 25 * ms1, 27 * ms1}), []time.Duration{15 * ms1, 2 * ms1}; !reflect.DeepEqual(got, want) {
		t.Errorf("gaps = %v, want %v", got, want)
	}
	if gaps([]time.Duration{ms1}) != nil {
		t.Error("one stamp has no gap")
	}
}

func TestParseProm(t *testing.T) {
	page := `# HELP volley_sampler_observations_total Adaptive sampling operations.
# TYPE volley_sampler_observations_total counter
volley_sampler_observations_total{instance="canary-0/mon/m"} 202
volley_sampler_observations_total{instance="t1/mon/m0"} 80
volley_sampler_bound_dist_bucket{instance="t1/mon/m0",le="+Inf"} 80
volley_sampler_bound_dist_sum{instance="t1/mon/m0"} 0.0232
volley_build_info{version="v0 (x y)",goversion="go1.24.0"} 1
volleyd_uptime_seconds 2.649913858
volley_cluster_tasks 2
`
	s, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := s[`volley_sampler_observations_total{instance="canary-0/mon/m"}`]; got != 202 {
		t.Errorf("canary series = %v, want 202", got)
	}
	if got := s.family("volley_sampler_observations_total"); got != 282 {
		t.Errorf("family sum = %v, want 282", got)
	}
	if got := s.family("volley_cluster_tasks"); got != 2 {
		t.Errorf("unlabelled family = %v, want 2", got)
	}
	if _, ok := s[`volley_sampler_bound_dist_bucket{instance="t1/mon/m0",le="+Inf"}`]; ok {
		t.Error("histogram buckets should be skipped")
	}
	if got := s[`volley_build_info{version="v0 (x y)",goversion="go1.24.0"}`]; got != 1 {
		t.Errorf("label values with spaces: got %v, want 1", got)
	}
	if _, err := parseProm(strings.NewReader("broken_line_without_value\n")); err == nil {
		t.Error("a line without a value must be an error")
	}
}

func TestParseMemstats(t *testing.T) {
	m, err := parseMemstats(strings.NewReader(`{"cmdline":["volleyd"],"memstats":{"Mallocs":12,"TotalAlloc":3400,"PauseTotalNs":56,"HeapInuse":789,"NumGC":3,"Frees":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := (memstats{Mallocs: 12, TotalAlloc: 3400, PauseTotalNs: 56, HeapInuse: 789, NumGC: 3}); m != want {
		t.Errorf("memstats = %+v, want %+v", m, want)
	}
	if _, err := parseMemstats(strings.NewReader(`{"cmdline":[]}`)); err == nil {
		t.Error("missing memstats must be an error")
	}
}

func TestParseProcFiles(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := []byte("4242 (volleyd (x) y) S 1 4242 4242 0 -1 4194560 1500 0 7 0 250 50 0 0 20 0 8 0 12345 1000000 2000 18446744073709551615")
	ps, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ps.cpu != 3.0 || ps.sys != 0.5 || ps.faults != 1507 {
		t.Errorf("procStat = %+v, want cpu 3.0 s, sys 0.5 s, 1507 faults", ps)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("malformed stat must be an error")
	}
	rss, err := parseStatusRSS([]byte("Name:\tvolleyd\nVmPeak:\t 999 kB\nVmRSS:\t   20480 kB\nThreads:\t8\n"))
	if err != nil || rss != 20480*1024 {
		t.Errorf("VmRSS = %v, %v; want %d", rss, err, 20480*1024)
	}
	if _, err := parseStatusRSS([]byte("Name:\tvolleyd\n")); err == nil {
		t.Error("status without VmRSS must be an error")
	}
}

func TestSelfTimes(t *testing.T) {
	// loop[0,100] ─ monitor.tick[10,60] ─ agent.read[20,30]
	//             │                    └ send[35,55] ─ coord.handle[40,50]
	//             └ observe[70,80]
	spans := []span{
		{Name: spanLoop, Parent: -1, Start: 0, End: 100},
		{Name: spanMonitorTick, Parent: 0, Start: 10, End: 60},
		{Name: spanAgentRead, Parent: 1, Start: 20, End: 30},
		{Name: spanSend, Parent: 1, Start: 35, End: 55},
		{Name: spanCoordHandle, Parent: 3, Start: 40, End: 50},
		{Name: spanObserve, Parent: 0, Start: 70, End: 80},
	}
	self := selfTimes(spans)
	want := map[int]int64{spanLoop: 40, spanMonitorTick: 20, spanAgentRead: 10, spanSend: 10, spanCoordHandle: 10, spanObserve: 10}
	var total int64
	for name, ns := range self {
		total += ns
		if ns != want[name] {
			t.Errorf("self time of %s = %d, want %d", spanMetric[name], ns, want[name])
		}
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestRecorderNestsAndSwitchesOff(t *testing.T) {
	r := &recorder{t0: time.Now(), on: true}
	a := r.begin(spanLoop)
	b := r.begin(spanMonitorTick)
	r.end(b)
	c := r.begin(spanObserve)
	r.end(c)
	r.end(a)
	if len(r.spans) != 3 || r.spans[b].Parent != a || r.spans[c].Parent != a || r.spans[a].Parent != -1 {
		t.Fatalf("parents wrong: %+v", r.spans)
	}
	r.on = false
	r.end(r.begin(spanLoop))
	if len(r.spans) != 3 {
		t.Error("a recorder that is off must record nothing")
	}
}

func TestEstimateEpoch(t *testing.T) {
	const windows = 50
	period := 7 * ms1
	index := make(map[float64]int)
	values := make([]float64, windows)
	for i := range values {
		values[i] = 1000 + float64(i)
		index[values[i]] = i
	}
	exec := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	epoch := exec.Add(1234*ms1 + 500*time.Microsecond)
	// Ticks every 20 ms from 2 s after the epoch, each alert 100 us after its
	// sample: three laps of the 350 ms series.
	var obs []calObs
	for k := 0; k < 60; k++ {
		sample := epoch.Add(2*time.Second + time.Duration(k)*20*ms1)
		w := int(sample.Sub(epoch)/period) % windows
		obs = append(obs, calObs{at: sample.Add(100 * time.Microsecond), value: values[w]})
	}
	obs = append(obs, calObs{at: exec, value: -1}) // a value outside the series is ignored
	got, err := estimateEpoch(obs, index, period, windows, exec)
	if err != nil {
		t.Fatal(err)
	}
	// Set-up (1.2 s) is longer than one 350 ms lap, so the estimate may sit
	// whole laps early; within a lap it must be right to the alert delay
	// plus the smallest phase any tick happened to have.
	lap := time.Duration(windows) * period
	off := epoch.Sub(got) % lap
	if off < 0 {
		off += lap
	}
	if off > lap/2 {
		off -= lap
	}
	if off > 0 || off < -time.Millisecond {
		t.Errorf("epoch estimate is %v from the truth (mod a lap), want within (-1ms, 0]", off)
	}
	if _, err := estimateEpoch(nil, index, period, windows, exec); err == nil {
		t.Error("no observations must be an error")
	}
}

func TestCalibrationSeriesNamesItsWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 1400-window entropy series")
	}
	index, err := calIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(index) < calWindows*9/10 {
		t.Errorf("only %d of %d calibration values are unique", len(index), calWindows)
	}
}

// Every admission body must be a function of the seed alone.
func TestAdmissionBodiesAreDeterministicInTheSeed(t *testing.T) {
	div := 4
	if testing.Short() {
		div = 16
	}
	for _, w := range workloads {
		build := func(seed int64) []byte {
			bg, err := w.background(seed, div)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			probes, err := probeSet(w, seed, div)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			tasks := append(canaryTasks(2, "http://truth"), bg...)
			tasks = append(tasks, calTasks(2)...)
			tasks = append(tasks, probeTasks(probes, w.probeMaxInterval, "http://truth")...)
			data, err := json.Marshal(tasks)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		a, b, c := build(7), build(7), build(8)
		if string(a) != string(b) {
			t.Errorf("%s: two builds from seed 7 differ", w.name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 build the same tasks", w.name)
		}
		if strings.Contains(string(a), "NaN") || !json.Valid(a) {
			t.Errorf("%s: bodies are not valid JSON", w.name)
		}
	}
}

func TestGatedArmsAndPredictorsComeFirst(t *testing.T) {
	tasks, err := tenantsGated(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	gated, ungated := 0, 0
	for _, tb := range tasks {
		if tb.Gate != nil {
			if !seen[tb.Gate.Predictor] {
				t.Fatalf("task %s is admitted before its predictor %s", tb.Name, tb.Gate.Predictor)
			}
			if !strings.HasPrefix(tb.Name, "tg-") {
				t.Errorf("gated task %s is not in the tg- arm", tb.Name)
			}
			gated++
		} else if strings.HasPrefix(tb.Name, "tu-") {
			ungated++
		}
		seen[tb.Name] = true
	}
	if gated == 0 || gated != ungated {
		t.Errorf("arms: %d gated, %d ungated; want equal and non-empty", gated, ungated)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	s := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if s.q1 != 3.5 || s.med != 13.5 || s.q3 != 31.0 || s.n != 10 || s.min != 1 || s.max != 46 {
		t.Errorf("quartiles = %+v, want q1 3.5, median 13.5, q3 31", s)
	}
	if got := s.rel(); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("rel = %v, want %v", got, 27.5/13.5)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if s := quartiles([]float64{3, 5}); s.q1 != 2.5 || s.q3 != 5.5 {
		t.Errorf("two values: %+v, want q1 2.5 q3 5.5", s)
	}
	if s := quartiles([]float64{3}); s.q1 != 3 || s.med != 3 || s.q3 != 3 {
		t.Errorf("one value: %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "cpu", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(c float64) spread { return quartiles([]float64{c * 0.99, c, c, c * 1.01}) }
	wide := func(c float64) spread { return quartiles([]float64{c * 0.7, c * 0.9, c * 1.1, c * 1.3}) }
	cases := []struct {
		m        specMetric
		old, new spread
		want     string
	}{
		{lower, tight(100), tight(100.5), "same"},
		{lower, tight(100), tight(115), "WORSE"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(85), "WORSE"},
		{higher, tight(100), tight(120), "better"},
		{lower, wide(100), wide(115), "unresolved"},
		{lower, wide(100), tight(60), "better"}, // every new run beats every old run
		{lower, tight(100), spread{}, "missing"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, old med %.1f, new med %.1f) = %s, want %s", c.m.Better, c.old.med, c.new.med, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20}
	if got := quantile(ds, 0.5); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
	if got := quantile(ds, 1); got != 40 {
		t.Errorf("max = %v, want 40", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

// BENCHMARK.json is the contract the driver reads; the harness must produce
// every metric it lists, on every workload it names.
func TestContractMatchesTheHarness(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: contract %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	e2e := map[string]metric{}
	for _, name := range []string{"setup_s", "rss_bytes_per_monitor", "alloc_bytes_per_monitor_tick",
		"sampling_ratio", "detect_latency_ticks_mean", "detected_episode_share"} {
		e2e[name] = metric{Value: 1.5, Unit: "x", N: 1}
	}
	// The per-layer list is long and filled from four places; whether a run
	// produces all of it is checked by running one (driverLine refuses to
	// print a result otherwise). Here: the traced spans and the directly
	// timed layers are all listed, and nothing is listed twice.
	layers := map[string]metric{}
	for _, name := range spanMetric {
		layers[name] = metric{Value: 2.5}
	}
	if err := directLayers(layers); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		if listed[m.Name] {
			t.Errorf("per-layer metric %s is listed twice", m.Name)
		}
		listed[m.Name] = true
	}
	for name := range layers {
		if !listed[name] {
			t.Errorf("the harness measures %s but the contract does not list it", name)
		}
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = metric{Value: 3.5}
	}
	run := runResult{Workload: "ddos-http", Correct: true, Attempted: 10, EndToEnd: e2e, PerLayer: layers}
	for _, traced := range []bool{false, true} {
		line, err := driverLine(spec, run, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		var got struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(got.Metrics) != len(want) || !got.Correct || got.Attempted != 10 {
			t.Errorf("traced=%v: %d metrics, want %d; line %s", traced, len(got.Metrics), len(want), line)
		}
		for _, m := range want {
			if got.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("traced=%v: %s has unit %q, contract says %q", traced, m.Name, got.Metrics[m.Name].Unit, m.Unit)
			}
		}
	}
	delete(e2e, "setup_s")
	if _, err := driverLine(spec, run, false); err == nil {
		t.Error("a run missing a listed metric must not print a result")
	}
}
