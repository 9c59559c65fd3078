package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"volley"
)

func TestParseNumber(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    float64
		wantErr bool
	}{
		{name: "plain", in: "42", want: 42},
		{name: "float", in: "3.5\n", want: 3.5},
		{name: "leading whitespace", in: "  7 trailing words", want: 7},
		{name: "scientific", in: "1e3", want: 1000},
		{name: "empty", in: "", wantErr: true},
		{name: "not a number", in: "abc", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseNumber([]byte(tt.in))
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("parseNumber(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseDirection(t *testing.T) {
	if d, err := parseDirection(""); err != nil || d != volley.Above {
		t.Errorf("empty direction = %v, %v", d, err)
	}
	if d, err := parseDirection("Below"); err != nil || d != volley.Below {
		t.Errorf("below = %v, %v", d, err)
	}
	if _, err := parseDirection("sideways"); err == nil {
		t.Error("bogus direction accepted, want error")
	}
}

func TestBuildAgentValidation(t *testing.T) {
	if _, err := buildAgent("", nil); err == nil {
		t.Error("empty source accepted, want error")
	}
	if _, err := buildAgent("cmd:   ", nil); err == nil {
		t.Error("empty command accepted, want error")
	}
	if _, err := buildAgent("ftp://example", nil); err == nil {
		t.Error("unknown scheme accepted, want error")
	}
}

func TestBuildAgentCmd(t *testing.T) {
	agent, err := buildAgent("cmd:echo 12.5", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := agent.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if v != 12.5 {
		t.Errorf("cmd agent = %v, want 12.5", v)
	}
}

func TestBuildAgentCmdFailure(t *testing.T) {
	agent, err := buildAgent("cmd:false", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Sample(); err == nil {
		t.Error("failing command produced no error")
	}
}

func TestBuildAgentHTTP(t *testing.T) {
	var value atomic.Value
	value.Store("55")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(value.Load().(string)))
	}))
	defer srv.Close()
	agent, err := buildAgent(srv.URL, newAgentPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	v, err := agent.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if v != 55 {
		t.Errorf("http agent = %v, want 55", v)
	}
	value.Store("not-a-number")
	if _, err := agent.Sample(); err == nil {
		t.Error("non-numeric body produced no error")
	}
}

func TestBuildAgentHTTPStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	agent, err := buildAgent(srv.URL, newAgentPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Sample(); err == nil {
		t.Error("500 response produced no error")
	}
}

// TestRunEndToEnd drives the daemon loop against an HTTP source that spikes
// above the threshold midway and verifies the JSON log contains both
// samples and alerts.
func TestRunEndToEnd(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := calls.Add(1)
		v := "10"
		if n > 20 {
			v = "100"
		}
		_, _ = w.Write([]byte(v))
	}))
	defer srv.Close()

	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := run(ctx, options{
		source:      srv.URL,
		interval:    time.Millisecond,
		threshold:   50,
		direction:   "above",
		errAllow:    0.05,
		maxInterval: 5,
		duration:    600 * time.Millisecond,
		out:         &buf,
	})
	if err != nil {
		t.Fatal(err)
	}

	var samples, alerts int
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	for dec.More() {
		var e event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad log line: %v", err)
		}
		switch e.Kind {
		case "sample":
			samples++
		case "alert":
			alerts++
		case "error":
			t.Errorf("unexpected error event: %+v", e)
		}
	}
	if samples == 0 {
		t.Error("no sample events logged")
	}
	if alerts == 0 {
		t.Error("no alert events logged despite the spike")
	}
}

func TestRunWithAggregationWindow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("5"))
	}))
	defer srv.Close()
	var buf bytes.Buffer
	err := run(context.Background(), options{
		source:      srv.URL,
		interval:    time.Millisecond,
		threshold:   50,
		errAllow:    0.05,
		maxInterval: 5,
		window:      4,
		duration:    200 * time.Millisecond,
		out:         &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"sample"`) {
		t.Errorf("no samples logged:\n%s", buf.String())
	}
}

func TestRunValidation(t *testing.T) {
	base := options{
		source: "cmd:echo 1", interval: time.Millisecond,
		errAllow: 0.01, maxInterval: 5, duration: 10 * time.Millisecond,
		out: &bytes.Buffer{},
	}
	bad := base
	bad.source = ""
	if err := run(context.Background(), bad); err == nil {
		t.Error("missing source accepted, want error")
	}
	bad = base
	bad.interval = 0
	if err := run(context.Background(), bad); err == nil {
		t.Error("zero interval accepted, want error")
	}
	bad = base
	bad.direction = "sideways"
	if err := run(context.Background(), bad); err == nil {
		t.Error("bad direction accepted, want error")
	}
	bad = base
	bad.errAllow = 7
	if err := run(context.Background(), bad); err == nil {
		t.Error("bad allowance accepted, want error")
	}
}

func TestRunAgentErrorsAreLoggedAndRetried(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), options{
		source:      "cmd:false",
		interval:    time.Millisecond,
		errAllow:    0.01,
		maxInterval: 5,
		duration:    100 * time.Millisecond,
		out:         &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"kind":"error"`); n < 2 {
		t.Errorf("expected repeated error events, got %d:\n%s", n, buf.String())
	}
}

// lockedBuffer is a bytes.Buffer a running daemon writes while the test
// reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunNonFiniteValuesAreFailedReads: a source that prints NaN, Inf and
// -Inf in turn reads as failing. Each read is counted in
// volleyd_agent_errors_total and logged as an error line, and neither the
// sampler nor the alert registry ever sees a value, though any finite one
// would violate the threshold.
func TestRunNonFiniteValuesAreFailedReads(t *testing.T) {
	script := filepath.Join(t.TempDir(), "nonfinite.sh")
	if err := os.WriteFile(script, []byte(`n=$(cat "$0.n" 2>/dev/null || echo 0)
echo $((n + 1)) > "$0.n"
case $((n % 3)) in 0) echo NaN ;; 1) echo Inf ;; *) echo -Inf ;; esac
`), 0o755); err != nil {
		t.Fatal(err)
	}
	out := &lockedBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startDaemon(t, ctx, options{
		source: "cmd:sh " + script, interval: time.Millisecond, threshold: -1,
		errAllow: 0.05, maxInterval: 5, out: out,
	})
	var metrics string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, metrics = httpGet(t, "http://"+addr+"/metrics")
		if promValue(t, metrics, "volleyd_agent_errors_total") >= 6 || time.Now().After(deadline) {
			break
		}
	}
	if n := promValue(t, metrics, "volleyd_agent_errors_total"); n < 6 {
		t.Fatalf("volleyd_agent_errors_total = %v after 10 s of non-finite reads, want ≥ 6", n)
	}
	if n := promLabeledSum(t, metrics, "volley_sampler_observations_total", `instance="volleyd"`); n != 0 {
		t.Errorf("the sampler observed %v values, want 0", n)
	}
	if n := promValue(t, metrics, "volley_alerts_raised_total"); n != 0 {
		t.Errorf("%v alerts raised, want 0", n)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	for dec.More() {
		var e event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad log line: %v", err)
		}
		if e.Kind != "error" || !strings.Contains(e.Err, "non-finite") {
			t.Fatalf("logged %+v, want only non-finite read errors", e)
		}
		seen[e.Err[strings.LastIndex(e.Err, " ")+1:]] = true
	}
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		if !seen[v] {
			t.Errorf("no error line for %s (saw %v)", v, seen)
		}
	}
}

func TestStatePersistenceRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("5"))
	}))
	defer srv.Close()

	statePath := filepath.Join(t.TempDir(), "state.json")
	base := options{
		source:      srv.URL,
		interval:    time.Millisecond,
		threshold:   100,
		errAllow:    0.1,
		maxInterval: 5,
		duration:    300 * time.Millisecond,
		stateFile:   statePath,
		out:         &bytes.Buffer{},
	}
	if err := run(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("state file not written: %v", err)
	}
	var st volley.SamplerState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("state file not valid JSON: %v", err)
	}
	if st.Interval < 2 {
		t.Errorf("persisted interval = %d, want growth on quiet signal", st.Interval)
	}

	// A second run restores the state: its very first logged sample should
	// already use the grown interval rather than cold-starting at 1.
	var buf bytes.Buffer
	second := base
	second.out = &buf
	second.duration = 100 * time.Millisecond
	if err := run(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var first event
	for dec.More() {
		if err := dec.Decode(&first); err != nil {
			t.Fatal(err)
		}
		if first.Kind == "sample" {
			break
		}
	}
	if first.Interval < 2 {
		t.Errorf("first interval after restore = %d, want ≥ 2", first.Interval)
	}
}

func TestRestoreStateMissingFileIsFreshStart(t *testing.T) {
	s, err := volley.NewSampler(volley.SamplerConfig{Threshold: 1, Err: 0.01, MaxInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreState(filepath.Join(t.TempDir(), "absent.json"), s); err != nil {
		t.Errorf("missing state file should not error: %v", err)
	}
}

func TestRestoreStateRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := volley.NewSampler(volley.SamplerConfig{Threshold: 1, Err: 0.01, MaxInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreState(path, s); err == nil {
		t.Error("corrupt state file accepted, want error")
	}
}

// startDaemon runs the daemon with an HTTP listener on a free port and
// returns the bound address plus a channel carrying run's return value.
func startDaemon(t *testing.T, ctx context.Context, opts options) (addr string, done chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	opts.listen = "127.0.0.1:0"
	opts.onListen = func(a string) { addrCh <- a }
	done = make(chan error, 1)
	go func() { done <- run(ctx, opts) }()
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never bound its listener")
	}
	return addr, done
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRunGracefulShutdown cancels the daemon context mid-run and verifies
// the HTTP server is shut down cleanly: run returns nil (not a listener
// error) and the port stops accepting connections.
func TestRunGracefulShutdown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("1"))
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startDaemon(t, ctx, options{
		source:      srv.URL,
		interval:    time.Millisecond,
		threshold:   50,
		errAllow:    0.05,
		maxInterval: 5,
		out:         io.Discard,
	})

	if code, _ := httpGet(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status = %d before shutdown", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}

	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}

// TestObservabilityEndToEnd is the acceptance test for the observability
// layer: it scrapes the live endpoints during a run whose signal spikes
// over the threshold, and asserts the exposition carries non-zero sample
// and violation counters and that interval decisions landed in the trace
// ring.
func TestObservabilityEndToEnd(t *testing.T) {
	var calls atomic.Int64
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		v := "10"
		if n := calls.Add(1); n > 20 && n%10 < 3 {
			v = "100" // recurring spikes: violations plus interval resets
		}
		_, _ = w.Write([]byte(v))
	}))
	defer src.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startDaemon(t, ctx, options{
		source:      src.URL,
		interval:    time.Millisecond,
		threshold:   50,
		errAllow:    0.05,
		maxInterval: 5,
		out:         io.Discard,
	})
	base := "http://" + addr

	// Poll /metrics until the run has produced samples, alerts and
	// interval decisions (or time out and report what is missing).
	deadline := time.Now().Add(10 * time.Second)
	var metrics string
	for {
		_, metrics = httpGet(t, base+"/metrics")
		ok := !strings.Contains(metrics, "volley_sampler_observations_total{instance=\"volleyd\"} 0\n") &&
			!strings.Contains(metrics, "volleyd_alerts_total 0\n") &&
			(strings.Contains(metrics, `volley_trace_events_total{type="interval-grow"}`) &&
				!strings.Contains(metrics, `volley_trace_events_total{type="interval-grow"} 0`))
		if ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range []string{
		"volley_sampler_observations_total", "volleyd_alerts_total",
		"volley_sampler_interval", "volley_sampler_bound_dist_bucket",
		"volley_trace_events_total", "volleyd_uptime_seconds",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s:\n%s", name, metrics)
		}
	}
	if strings.Contains(metrics, "volley_sampler_observations_total{instance=\"volleyd\"} 0\n") {
		t.Error("sample counter never moved")
	}
	if strings.Contains(metrics, "volleyd_alerts_total 0\n") {
		t.Error("alert counter never moved despite spikes")
	}

	// The trace ring must hold interval decisions and violations.
	_, eventsBody := httpGet(t, base+"/debug/events")
	var evs []volley.TraceEvent
	if err := json.Unmarshal([]byte(eventsBody), &evs); err != nil {
		t.Fatalf("/debug/events not valid JSON: %v\n%s", err, eventsBody)
	}
	byType := map[volley.TraceEventType]int{}
	for _, e := range evs {
		byType[e.Type]++
	}
	if byType[volley.TraceIntervalGrow] == 0 {
		t.Error("no interval-grow events in trace ring")
	}
	if byType[volley.TraceViolation] == 0 {
		t.Error("no violation events in trace ring")
	}

	// Remaining endpoints answer.
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %d %s", code, body)
	}
	if code, body := httpGet(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "volleyd") {
		t.Errorf("/debug/vars = %d, want volleyd var present", code)
	}
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestEventsFlagTailsDecisions verifies -events interleaves decision events
// (JSON objects with a "type" field) with the regular sample log.
func TestEventsFlagTailsDecisions(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("10"))
	}))
	defer srv.Close()
	var buf bytes.Buffer
	err := run(context.Background(), options{
		source:      srv.URL,
		interval:    time.Millisecond,
		threshold:   50,
		errAllow:    0.05,
		maxInterval: 5,
		events:      true,
		duration:    300 * time.Millisecond,
		out:         &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"interval-grow"`) {
		t.Errorf("no interval-grow events tailed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"kind":"sample"`) {
		t.Errorf("sample log suppressed by -events:\n%s", buf.String())
	}
}

// promValue extracts the value of an unlabeled metric from a Prometheus
// text exposition.
func promValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s has unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, exposition)
	return 0
}

// httpDo issues a request with a method and optional JSON body.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestClusterModeEndToEnd is the acceptance test for volleyd's cluster
// mode: a 3-shard daemon admits a task over HTTP at runtime, the task's
// signal spikes and raises alerts, the owning shard is crashed over HTTP,
// and the task keeps alerting from its new owner; /healthz carries
// per-shard readiness and the ring epoch, /metrics the volley_cluster_*
// instruments.
func TestClusterModeEndToEnd(t *testing.T) {
	var calls atomic.Int64
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		v := "10"
		if n := calls.Add(1); n%10 < 4 {
			v = "100" // recurring global spikes
		}
		_, _ = w.Write([]byte(v))
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

	// Before any admission: three ready shards, no tasks, epoch 3 (one ring
	// change per initial shard).
	health := func() map[string]any {
		_, body := httpGet(t, base+"/healthz")
		var h map[string]any
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("/healthz not JSON: %v\n%s", err, body)
		}
		return h
	}
	h := health()
	if h["mode"] != "cluster" || h["ring_epoch"].(float64) != 3 {
		t.Fatalf("initial healthz = %v, want cluster mode at ring epoch 3", h)
	}
	shardsJSON, _ := json.Marshal(h["shards"])
	var shardInfos []volley.ClusterShardInfo
	if err := json.Unmarshal(shardsJSON, &shardInfos); err != nil {
		t.Fatalf("healthz shards not parseable: %v", err)
	}
	if len(shardInfos) != 3 {
		t.Fatalf("healthz shards = %v, want 3", shardInfos)
	}
	for _, si := range shardInfos {
		if !si.Ready {
			t.Errorf("shard %s not ready", si.ID)
		}
	}

	// Admit a task at runtime: two monitors on the spiking source.
	spec := `{"name":"cpu","threshold":50,"err":0.05,"monitors":[` +
		`{"id":"m0","source":"` + src.URL + `"},{"id":"m1","source":"` + src.URL + `"}]}`
	code, body := httpDo(t, http.MethodPost, base+"/tasks", spec)
	if code != http.StatusCreated {
		t.Fatalf("POST /tasks = %d %s", code, body)
	}
	var admitted struct {
		Shard       string `json:"shard"`
		Coordinator string `json:"coordinator"`
	}
	if err := json.Unmarshal([]byte(body), &admitted); err != nil {
		t.Fatal(err)
	}
	if code, _ := httpDo(t, http.MethodPost, base+"/tasks", spec); code != http.StatusConflict {
		t.Errorf("duplicate POST /tasks = %d, want conflict", code)
	}
	if code, body := httpDo(t, http.MethodPost, base+"/tasks",
		`{"name":"bad","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"ftp://x"}]}`); code != http.StatusBadRequest {
		t.Errorf("bad-source POST /tasks = %d %s, want bad request", code, body)
	}

	// The cluster must produce alerts: the spikes push both monitors over
	// their local split and the global poll over the task threshold.
	deadline := time.Now().Add(10 * time.Second)
	for health()["alerts"].(float64) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no alerts before the crash")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The exposition carries the cluster instruments with live values.
	_, metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"volley_cluster_ring_epoch 3", "volley_cluster_shards 3",
		"volley_cluster_tasks 1", "volley_cluster_admissions_total 1",
		`volley_cluster_shard_tasks{shard="` + admitted.Shard + `"} 1`,
		"volley_cluster_global_alerts", "volleyd_alerts_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// The streaming-threshold instruments are live: two hosted monitors
	// mean two sketches of the one constant size, and this well-behaved
	// source must not have had a value rejected.
	if v := promValue(t, metrics, "volley_sketch_series"); v != 2 {
		t.Errorf("volley_sketch_series = %v, want 2", v)
	}
	one, err := volley.NewStreamingThresholds(clusterSelectivityGrid)
	if err != nil {
		t.Fatal(err)
	}
	if v := promValue(t, metrics, "volley_series_resident_bytes"); v != float64(2*one.ResidentBytes()) {
		t.Errorf("volley_series_resident_bytes = %v, want %d", v, 2*one.ResidentBytes())
	}
	if v := promValue(t, metrics, "volley_sketch_rejected_total"); v != 0 {
		t.Errorf("volley_sketch_rejected_total = %v, want 0", v)
	}

	// Crash the owning shard: the task must re-place and keep alerting.
	if code, body := httpDo(t, http.MethodDelete, base+"/shards/"+admitted.Shard+"?mode=crash", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE /shards/%s = %d %s", admitted.Shard, code, body)
	}
	_, body = httpGet(t, base+"/tasks")
	var tasks []volley.ClusterTaskInfo
	if err := json.Unmarshal([]byte(body), &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Shard == admitted.Shard {
		t.Fatalf("tasks after crash = %+v, want cpu off %s", tasks, admitted.Shard)
	}
	h = health()
	if h["ring_epoch"].(float64) != 4 {
		t.Errorf("ring_epoch after crash = %v, want 4", h["ring_epoch"])
	}
	if h["handoffs"].(float64) < 1 {
		t.Errorf("handoffs after crash = %v, want >= 1", h["handoffs"])
	}
	alertsAtCrash := h["alerts"].(float64)
	deadline = time.Now().Add(10 * time.Second)
	for health()["alerts"].(float64) <= alertsAtCrash {
		if time.Now().After(deadline) {
			t.Fatal("no alerts after the crash: the handoff lost the task")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, metrics = httpGet(t, base+"/metrics")
	if !strings.Contains(metrics, "volley_cluster_handoffs_total 1") ||
		!strings.Contains(metrics, "volley_cluster_shard_crashes_total 1") {
		t.Errorf("/metrics missing handoff/crash counters:\n%s", metrics)
	}

	// Retune from the live sketches: PATCH with a selectivity instead of a
	// threshold derives each monitor's local threshold from what it has
	// actually sampled (no history replay) and answers with the resolved
	// values. The source alternates between 10 and 100 with ~40% of steps
	// at 100, so any selectivity k < 40 must resolve near the spike level.
	// Each PATCH answers with the sample count behind every derived
	// threshold and the rank error the sketches guarantee for it; retune
	// until both sketches have seen a fair stretch of the stream.
	var retuned struct {
		Threshold       float64   `json:"threshold"`
		LocalThresholds []float64 `json:"localThresholds"`
		Samples         []int     `json:"samples"`
		RankError       *float64  `json:"rankError"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, body = httpDo(t, http.MethodPatch, base+"/tasks/cpu", `{"selectivity":5,"err":0.1}`)
		if code != http.StatusOK {
			t.Fatalf("PATCH /tasks/cpu selectivity = %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &retuned); err != nil {
			t.Fatalf("selectivity PATCH body not JSON: %v\n%s", err, body)
		}
		if len(retuned.Samples) == 2 && retuned.Samples[0] >= 100 && retuned.Samples[1] >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitors never accumulated 100 samples: %+v", retuned)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(retuned.LocalThresholds) != 2 || retuned.Threshold <= 0 {
		t.Errorf("selectivity retune = %+v, want 2 positive local thresholds", retuned)
	}
	if retuned.RankError == nil || *retuned.RankError < 0 || *retuned.RankError > volley.SketchRankErrorBound {
		t.Errorf("selectivity retune reports rankError %v, want one in [0, %v]", retuned.RankError, volley.SketchRankErrorBound)
	}
	for i, lt := range retuned.LocalThresholds {
		if lt < 50 || lt > 110 {
			t.Errorf("local threshold %d = %v, want near the spike level 100", i, lt)
		}
		if retuned.Samples[i] == 0 {
			t.Errorf("monitor %d reports 0 samples behind its derived threshold", i)
		}
	}
	if code, body := httpDo(t, http.MethodPatch, base+"/tasks/cpu", `{"selectivity":5,"threshold":80,"err":0.1}`); code != http.StatusBadRequest {
		t.Errorf("PATCH with both selectivity and threshold = %d %s, want bad request", code, body)
	}
	if code, body := httpDo(t, http.MethodPatch, base+"/tasks/nope", `{"selectivity":5,"err":0.1}`); code != http.StatusNotFound {
		t.Errorf("selectivity PATCH for unknown task = %d %s, want not found", code, body)
	}

	// Retune, then evict; the control plane answers and the task list
	// empties.
	if code, body := httpDo(t, http.MethodPatch, base+"/tasks/cpu", `{"threshold":80,"err":0.1}`); code != http.StatusNoContent {
		t.Errorf("PATCH /tasks/cpu = %d %s", code, body)
	}
	if code, body := httpDo(t, http.MethodDelete, base+"/tasks/cpu", ""); code != http.StatusNoContent {
		t.Errorf("DELETE /tasks/cpu = %d %s", code, body)
	}
	if code, _ := httpDo(t, http.MethodDelete, base+"/tasks/cpu", ""); code != http.StatusNotFound {
		t.Errorf("second DELETE /tasks/cpu = %d, want not found", code)
	}
	_, body = httpGet(t, base+"/tasks")
	if err := json.Unmarshal([]byte(body), &tasks); err != nil || len(tasks) != 0 {
		t.Errorf("tasks after eviction = %s, want empty", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cluster daemon did not shut down")
	}
}

// TestClusterModeValidation covers cluster-mode startup failures.
func TestClusterModeValidation(t *testing.T) {
	if err := run(context.Background(), options{shards: 2, interval: time.Millisecond, maxInterval: 5, out: io.Discard}); err == nil {
		t.Error("cluster mode without -listen accepted, want error")
	}
	if err := run(context.Background(), options{shards: 2, interval: 0, maxInterval: 5, listen: "127.0.0.1:0", out: io.Discard}); err == nil {
		t.Error("cluster mode with zero interval accepted, want error")
	}
}

// TestBuildAgentCmdDeadline: a command that hangs costs the tick loop the
// agents' deadline, as a stalled HTTP source does, not the rest of its life.
func TestBuildAgentCmdDeadline(t *testing.T) {
	shortTimeout(t, 100*time.Millisecond)
	agent, err := buildAgent("cmd:sleep 60", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = agent.Sample()
	if err == nil || !strings.Contains(err.Error(), "gave up after 100ms") {
		t.Errorf("hung command: %v, want the deadline's error", err)
	}
	// Well short of the second a survivor holding the pipe would be given:
	// the shell's child died with it.
	if took := time.Since(start); took > 800*time.Millisecond {
		t.Errorf("gave up after %v", took)
	}
}
