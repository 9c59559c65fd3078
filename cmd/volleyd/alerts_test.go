package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"volley"
)

// getAlerts fetches and decodes GET /alerts.
func getAlerts(t *testing.T, base string) []volley.Alert {
	t.Helper()
	code, body := httpGet(t, base+"/alerts")
	if code != http.StatusOK {
		t.Fatalf("GET /alerts = %d %s", code, body)
	}
	var out []volley.Alert
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("GET /alerts not JSON: %v\n%s", err, body)
	}
	return out
}

// waitAlert polls GET /alerts until pred matches one alert.
func waitAlert(t *testing.T, base string, pred func(volley.Alert) bool) volley.Alert {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, a := range getAlerts(t, base) {
			if pred(a) {
				return a
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no matching alert; have %+v", getAlerts(t, base))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAlertLifecycleEndToEnd is the acceptance test for the operator alert
// API in single-process mode: a sustained violation opens exactly one
// alert, the HTTP surface drives list → ack → resolve, a second episode is
// retired by TTL when the signal goes quiet, and the JSONL history file
// replays both episodes' full status sequences.
func TestAlertLifecycleEndToEnd(t *testing.T) {
	var failing atomic.Bool
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte("100")) // always violating (threshold 50)
	}))
	defer src.Close()

	histPath := t.TempDir() + "/alerts.jsonl"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startDaemon(t, ctx, options{
		source:      src.URL,
		interval:    time.Millisecond,
		threshold:   50,
		errAllow:    0.05,
		maxInterval: 5,
		alertHist:   histPath,
		alertTTL:    250 * time.Millisecond,
		out:         io.Discard,
	})
	base := "http://" + addr

	// A violation sustained across many samples dedups into ONE open alert.
	first := waitAlert(t, base, func(a volley.Alert) bool { return a.Status == volley.AlertOpen })
	time.Sleep(50 * time.Millisecond) // many more violating samples
	open := 0
	for _, a := range getAlerts(t, base) {
		if a.Status == volley.AlertOpen {
			open++
			if a.Occurrences < 2 {
				t.Errorf("occurrences = %d, want re-raises deduped into the episode", a.Occurrences)
			}
		}
	}
	if open != 1 {
		t.Fatalf("open alerts = %d, want exactly 1", open)
	}

	// Ack, then resolve, through the operator API.
	id := strconv.FormatUint(first.ID, 10)
	code, body := httpDo(t, http.MethodPost, base+"/alerts/"+id+"/ack?actor=alice", "")
	if code != http.StatusOK {
		t.Fatalf("ack = %d %s", code, body)
	}
	var acked volley.Alert
	if err := json.Unmarshal([]byte(body), &acked); err != nil || acked.Status != volley.AlertAcked || acked.AckedBy != "alice" {
		t.Fatalf("ack response = %s (%v)", body, err)
	}
	if code, _ := httpDo(t, http.MethodPost, base+"/alerts/"+id+"/ack", ""); code != http.StatusConflict {
		t.Errorf("double ack = %d, want conflict", code)
	}
	code, body = httpDo(t, http.MethodPost, base+"/alerts/"+id+"/resolve?actor=alice", "")
	if code != http.StatusOK {
		t.Fatalf("resolve = %d %s", code, body)
	}
	if code, _ := httpDo(t, http.MethodPost, base+"/alerts/"+id+"/resolve", ""); code != http.StatusConflict {
		t.Errorf("resolve after resolve = %d, want conflict", code)
	}
	if code, _ := httpDo(t, http.MethodPost, base+"/alerts/999999/ack", ""); code != http.StatusNotFound {
		t.Errorf("ack unknown id = %d, want not found", code)
	}
	if code, _ := httpDo(t, http.MethodPost, base+"/alerts/xyz/ack", ""); code != http.StatusBadRequest {
		t.Errorf("ack bad id = %d, want bad request", code)
	}

	// The still-violating signal opens a SECOND episode...
	second := waitAlert(t, base, func(a volley.Alert) bool {
		return a.Status == volley.AlertOpen && a.ID != first.ID
	})
	// ...then the signal goes dark (errors neither raise nor clear), so the
	// TTL backstop expires it.
	failing.Store(true)
	expired := waitAlert(t, base, func(a volley.Alert) bool {
		return a.ID == second.ID && a.Status == volley.AlertExpired
	})
	if expired.Window != second.Window {
		t.Errorf("expired alert window changed: %v != %v", expired.Window, second.Window)
	}

	// The exposition carries the alert families with live values.
	_, metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"volley_alerts_raised_total 2", "volley_alerts_deduped_total",
		"volley_alerts_resolved_total 1", "volley_alerts_expired_total 1",
		"volley_alerts_open 0", "volley_alerts_time_to_resolve_seconds_count 1",
		"volley_build_info{", "volley_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}

	// The JSONL history replays both episodes' full status sequences.
	f, err := os.Open(histPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seq := map[uint64][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			ID     uint64 `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad history row %q: %v", sc.Text(), err)
		}
		seq[rec.ID] = append(seq[rec.ID], rec.Status)
	}
	if got := strings.Join(seq[first.ID], ","); got != "open,acked,resolved" {
		t.Errorf("episode 1 history = %q, want open,acked,resolved", got)
	}
	if got := strings.Join(seq[second.ID], ","); got != "open,expired" {
		t.Errorf("episode 2 history = %q, want open,expired", got)
	}
}

// TestSinkFlushOnShutdown is the regression test for the graceful-shutdown
// flush: with buffered -events-file and -alert-history sinks, the tail of
// a short run fits entirely inside the bufio buffers — without the
// shutdown flush both files would be empty.
func TestSinkFlushOnShutdown(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("100")) // violating: trace events and an alert
	}))
	defer src.Close()

	dir := t.TempDir()
	eventsPath := dir + "/events.jsonl"
	histPath := dir + "/alerts.jsonl"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done := startDaemon(t, ctx, options{
		source:      src.URL,
		interval:    time.Millisecond,
		threshold:   50,
		errAllow:    0.05,
		maxInterval: 5,
		eventsFile:  eventsPath,
		alertHist:   histPath,
		out:         io.Discard,
	})
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}

	for _, path := range []string{eventsPath, histPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty after graceful shutdown: buffered tail lost", path)
		}
		if data[len(data)-1] != '\n' {
			t.Fatalf("%s ends mid-line: %q", path, data[len(data)-40:])
		}
		for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("%s line %d not valid JSON: %q", path, i+1, line)
			}
		}
	}
}

// TestClusterModeAlertAPI drives the same operator surface in -shards
// cluster mode: the coordinator's confirmed global violation opens the
// alert, dedup holds it at one, and ack/resolve work over HTTP.
func TestClusterModeAlertAPI(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("100"))
	}))
	defer src.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startDaemon(t, ctx, options{
		interval:    time.Millisecond,
		maxInterval: 5,
		shards:      3,
		out:         io.Discard,
	})
	base := "http://" + addr

	spec := `{"name":"cpu","threshold":50,"err":0.05,"monitors":[` +
		`{"id":"m0","source":"` + src.URL + `"},{"id":"m1","source":"` + src.URL + `"}]}`
	if code, body := httpDo(t, http.MethodPost, base+"/tasks", spec); code != http.StatusCreated {
		t.Fatalf("POST /tasks = %d %s", code, body)
	}

	a := waitAlert(t, base, func(a volley.Alert) bool {
		return a.Task == "cpu" && a.Status == volley.AlertOpen
	})
	time.Sleep(30 * time.Millisecond)
	open := 0
	for _, al := range getAlerts(t, base) {
		if al.Status == volley.AlertOpen {
			open++
		}
	}
	if open != 1 {
		t.Fatalf("open alerts = %d, want 1 despite sustained violation", open)
	}

	id := strconv.FormatUint(a.ID, 10)
	if code, body := httpDo(t, http.MethodPost, base+"/alerts/"+id+"/ack?actor=oncall", ""); code != http.StatusOK {
		t.Fatalf("ack = %d %s", code, body)
	}
	code, body := httpDo(t, http.MethodPost, base+"/alerts/"+id+"/resolve?actor=oncall", "")
	if code != http.StatusOK {
		t.Fatalf("resolve = %d %s", code, body)
	}
	var resolved volley.Alert
	if err := json.Unmarshal([]byte(body), &resolved); err != nil || resolved.Status != volley.AlertResolved {
		t.Fatalf("resolve response = %s (%v)", body, err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// alertLine is the stdout alert line as encoding/json renders it — the
// rendering the printer used until it was written by hand, kept as the oracle
// appendAlertLine is held to. The fields are declared in the order
// encoding/json sorts map keys into (TestAlertLineMatchesMapEncoding).
type alertLine struct {
	At    string    `json:"at"`
	Kind  string    `json:"kind"`
	Shard string    `json:"shard,omitempty"`
	Task  string    `json:"task"`
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

func encodingJSONAlertLine(shard, task string, now time.Duration, wall time.Time, total float64) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(alertLine{
		At: now.String(), Kind: "alert", Shard: shard, Task: task, Time: wall, Value: total,
	})
	return buf.Bytes(), err
}

// TestAlertLineMatchesEncodingJSON: the hand-rendered line is, byte for byte,
// what json.Encoder wrote — every escaping rule, the float format's two
// cutoffs and its exponent clean-up, time zones and trimmed fractions.
func TestAlertLineMatchesEncodingJSON(t *testing.T) {
	names := []string{
		"cpu", "", `weird "task" \ <&>`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "sep\u2028\u2029end",
		"bad\xffutf8\xc3", "\xe2\x80", "日本語/µs", "a<b>c&d", strings.Repeat("long-", 100),
	}
	totals := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 123.456, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e-9, 1.5e-9, 1e-10, 1e-100,
		1e20, 1e21, -1e21, 1.25e22, 123456789.123, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3,
	}
	nows := []time.Duration{
		0, time.Nanosecond, 1500 * time.Nanosecond, time.Millisecond, 1500 * time.Millisecond,
		3 * time.Second, 90 * time.Minute, -2 * time.Second, math.MaxInt64, math.MinInt64,
	}
	walls := []time.Time{
		time.Date(2026, 3, 4, 5, 6, 7, 123456789, time.FixedZone("", 3600)),
		time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC),
		time.Date(1999, 12, 31, 23, 59, 59, 500000000, time.FixedZone("", -(5*3600+30*60))),
		time.Date(1, 1, 1, 0, 0, 0, 1000, time.UTC),
		time.Now(),
	}
	for i := 0; i < len(names)*len(totals); i++ {
		shard, task := names[(i+3)%len(names)], names[i%len(names)]
		now, wall, total := nows[i%len(nows)], walls[i%len(walls)], totals[i/len(names)]
		want, err := encodingJSONAlertLine(shard, task, now, wall, total)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendAlertLine(nil, shard, task, now, wall, total); !bytes.Equal(got, want) {
			t.Errorf("alert line differs:\n got %s\nwant %s", got, want)
		}
	}
}

func FuzzAlertLineMatchesEncodingJSON(f *testing.F) {
	f.Add("", "cpu", int64(0), int64(0), uint32(0), int16(0), uint64(0))
	f.Add("shard-<b>&", `weird "task"`, int64(1500*time.Millisecond), int64(1772600767), uint32(123456789), int16(60), math.Float64bits(123.456))
	f.Add("s ", "bad\xff", int64(-1), int64(-62135596800), uint32(999999999), int16(-330), math.Float64bits(-1e-7))
	f.Add("a", "b", int64(math.MaxInt64), int64(253402300799), uint32(1), int16(1439), math.Float64bits(1e21))
	f.Add("a", "b", int64(1), int64(1), uint32(1), int16(1), math.Float64bits(math.Inf(1)))
	f.Fuzz(func(t *testing.T, shard, task string, now, sec int64, nsec uint32, zoneMin int16, bits uint64) {
		total := math.Float64frombits(bits)
		wall := time.Unix(sec%60e9, int64(nsec%1e9)).In(time.FixedZone("", int(zoneMin)%(24*60)*60))
		got := appendAlertLine(nil, shard, task, time.Duration(now), wall, total)
		if math.IsInf(total, 0) || math.IsNaN(total) {
			// No oracle: encoding/json refuses the value. The line must
			// carry null and still be a JSON object.
			var line struct{ Value *float64 }
			if err := json.Unmarshal(got, &line); err != nil || line.Value != nil || !bytes.HasSuffix(got, []byte(`,"value":null}`+"\n")) {
				t.Fatalf("non-finite total rendered as %s (%v)", got, err)
			}
			return
		}
		want, err := encodingJSONAlertLine(shard, task, time.Duration(now), wall, total)
		if err != nil {
			t.Skip(err) // a year below 0, which time.Now is not
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("alert line differs:\n got %s\nwant %s", got, want)
		}
	})
}

// TestAlertPrintZeroAlloc: a printed line costs its Write and nothing else.
func TestAlertPrintZeroAlloc(t *testing.T) {
	p := newAlertPrinter(io.Discard, "shard-a", nil)
	now := 90 * time.Minute
	if allocs := testing.AllocsPerRun(200, func() {
		now += 1500 * time.Microsecond
		p.print(`tenant-17/slo "p99" <ms>`, now, 1234.5678)
	}); allocs != 0 {
		t.Errorf("printing an alert line allocates %v times, want 0", allocs)
	}
}

// TestNonFiniteSampleIsRejected: an agent that answers Inf or NaN is a
// failed read — retried on the next tick, counted once per read in
// volley_agent_rejected_total{task} and in the monitor's agent errors — so
// the value reaches no sampler and no coordinator: no alert is raised and
// nothing is printed. (Before, Inf reached the coordinator's total and an
// alert that encoding/json could not write.)
func TestNonFiniteSampleIsRejected(t *testing.T) {
	for _, body := range []string{"Inf", "NaN"} {
		url := newQuietServer(t, "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n"+body)
		var out bytes.Buffer
		d, err := newClusterDaemon(options{interval: time.Millisecond, maxInterval: 10, shards: 1, out: &out})
		if err != nil {
			t.Fatal(err)
		}
		mux := d.mux()
		control(t, mux, http.MethodPost, "/tasks",
			`{"name":"bad","threshold":10,"err":0.05,"monitors":[{"id":"m0","source":"`+url+`/v"}]}`, http.StatusCreated)
		const ticks = 50
		for i := 0; i < ticks; i++ {
			d.tickOnce()
		}
		if d.alerts.Value() != 0 || out.Len() != 0 {
			t.Errorf("%s: %d alerts raised, printed %q", body, d.alerts.Value(), out.String())
		}
		page := metricsPage(t, mux)
		if got := promLabeledSum(t, page, "volley_agent_rejected_total", `task="bad"`); got != ticks {
			t.Errorf("%s: %v reads rejected in %d ticks, want one per tick", body, got, ticks)
		}
		if got := promLabeledSum(t, page, "volley_sampler_observations_total", `instance="bad/mon/m0"`); got != 0 {
			t.Errorf("%s: the sampler observed %v values", body, got)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tasks/bad/explain", nil))
		var explained struct{ Monitors []volley.MonitorExplanation }
		if err := json.Unmarshal(rec.Body.Bytes(), &explained); err != nil || len(explained.Monitors) != 1 {
			t.Fatalf("%s: explain = %d %s (%v)", body, rec.Code, rec.Body, err)
		}
		if m := explained.Monitors[0]; m.AgentErrors != ticks || m.Samples != 0 || m.Ticks != ticks {
			t.Errorf("%s: explain reads %+v, want %d ticks, %d agent errors and no sample", body, m, ticks, ticks)
		}
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}
}
