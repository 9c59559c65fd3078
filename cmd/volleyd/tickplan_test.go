package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"volley"
	"volley/internal/host"
)

// TestAlertLineMatchesMapEncoding pins the stdout alert line to the bytes the
// map[string]any encoding produced, with and without a shard.
func TestAlertLineMatchesMapEncoding(t *testing.T) {
	wall := time.Date(2026, 3, 4, 5, 6, 7, 123456789, time.FixedZone("", 3600))
	for _, shard := range []string{"", "shard-<b>&"} {
		for _, tc := range []struct {
			task  string
			now   time.Duration
			total float64
		}{
			{"cpu", 0, 0},
			{`weird "task" <&>`, 1500 * time.Millisecond, 123.456},
			{"big", 90 * time.Minute, 1e21},
			{"small", time.Nanosecond, -1e-7},
		} {
			asMap := map[string]any{
				"time": wall, "kind": "alert", "task": tc.task,
				"value": tc.total, "at": tc.now.String(),
			}
			if shard != "" {
				asMap["shard"] = shard
			}
			var want, got bytes.Buffer
			if err := json.NewEncoder(&want).Encode(asMap); err != nil {
				t.Fatal(err)
			}
			line := alertLine{At: tc.now.String(), Kind: "alert", Shard: shard, Task: tc.task, Time: wall, Value: tc.total}
			if err := json.NewEncoder(&got).Encode(line); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("alert line bytes differ:\n got %s\nwant %s", got.String(), want.String())
			}
		}
	}

	// The printer writes exactly such lines.
	var out bytes.Buffer
	newAlertPrinter(&out, "s1", nil).print("cpu", 3*time.Second, 7.5)
	var line alertLine
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("printed line %q: %v", out.String(), err)
	}
	line.Time = time.Time{}
	if want := (alertLine{At: "3s", Kind: "alert", Shard: "s1", Task: "cpu", Value: 7.5}); line != want {
		t.Errorf("printed %+v, want %+v", line, want)
	}
}

func testClusterDaemon(t *testing.T) *clusterDaemon {
	t.Helper()
	d, err := newClusterDaemon(options{
		interval: time.Millisecond, maxInterval: 10, shards: 2, out: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	})
	return d
}

// control sends one request through the daemon's control plane.
func control(t *testing.T, mux *http.ServeMux, method, path, body string, want int) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != want {
		t.Fatalf("%s %s = %d %s, want %d", method, path, rec.Code, rec.Body.String(), want)
	}
}

// tenantTask is a POST /tasks body for n workload:tenant monitors whose
// threshold no burst reaches.
func tenantTask(name string, first, n int) string {
	var mons []string
	for i := 0; i < n; i++ {
		mons = append(mons, fmt.Sprintf(`{"id":"m%d","source":"workload:tenant?index=%d&tenants=512&windows=256&seed=3&period=1ms"}`, i, first+i))
	}
	return fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.05,"monitors":[%s]}`, name, strings.Join(mons, ","))
}

// observations reads a hosted monitor's sampling counter the way a scrape
// sees it.
func observations(reg *volley.Metrics, task, mon string) uint64 {
	return reg.Counter("volley_sampler_observations_total", "", "instance", task+"/mon/"+mon).Value()
}

// TestClusterDaemonTickZeroAlloc is the guard over the whole steady-state
// tick: coordinators, 256 monitors with their heartbeats and yield reports
// through the in-process network. Nothing on it may allocate —
// nor when the monitors read their values over HTTP, looked ahead at by the
// walk, on connections that are warm.
func TestClusterDaemonTickZeroAlloc(t *testing.T) {
	t.Run("workload agents", func(t *testing.T) {
		d := testClusterDaemon(t)
		mux := d.mux()
		for i := 0; i < 4; i++ {
			control(t, mux, http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%d", i), 64*i, 64), http.StatusCreated)
		}
		for i := 0; i < 200; i++ {
			d.tickOnce()
		}
		if d.plan.Len() != 256 {
			t.Fatalf("plan holds %d monitors, want 256", d.plan.Len())
		}
		before := observations(d.reg, "task-3", "m63")
		// 300 runs cover three yield-report periods and thirty heartbeats.
		allocs := testing.AllocsPerRun(300, d.tickOnce)
		if allocs != 0 {
			t.Errorf("a steady-state tick allocates %.2f times, want 0", allocs)
		}
		if after := observations(d.reg, "task-3", "m63"); after == before {
			t.Error("the measured ticks sampled nothing")
		}
	})
	t.Run("http agents", func(t *testing.T) {
		url := newQuietServer(t, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n0.125")
		d := testClusterDaemon(t)
		mux := d.mux()
		// Three times the read-ahead window, between two in-process tasks;
		// maxInterval 2 so that a tick finds some monitors due and some not.
		control(t, mux, http.MethodPost, "/tasks", tenantTask("before", 0, 8), http.StatusCreated)
		var mons []string
		for i := 0; i < 3*agentWindow; i++ {
			mons = append(mons, fmt.Sprintf(`{"id":"m%d","source":"%s/s/%d"}`, i, url, i))
		}
		control(t, mux, http.MethodPost, "/tasks",
			fmt.Sprintf(`{"name":"http","threshold":1e12,"err":0.3,"maxInterval":2,"monitors":[%s]}`, strings.Join(mons, ",")), http.StatusCreated)
		control(t, mux, http.MethodPost, "/tasks", tenantTask("after", 8, 8), http.StatusCreated)
		for i := 0; i < 200; i++ {
			d.tickOnce()
		}
		before, dials := observations(d.reg, "http", "m7"), d.agents.dials.Value()
		if allocs := testing.AllocsPerRun(300, d.tickOnce); allocs != 0 {
			t.Errorf("a steady-state tick over HTTP agents allocates %.2f times, want 0", allocs)
		}
		if after := observations(d.reg, "http", "m7"); after == before {
			t.Error("the measured ticks sampled nothing")
		}
		if got := d.agents.dials.Value(); got != dials || dials != agentWindow {
			t.Errorf("dials went from %d to %d over the measured ticks, want %d and no more", dials, got, agentWindow)
		}
		if got := d.agents.readErrors.Value() + d.agents.retries.Value(); got != 0 {
			t.Errorf("%d agent read errors and retries", got)
		}
	})
}

// TestTickPlanRefreshAllocs: rebuilding the plan of a hosted set whose sizes
// it already has — gated and ungated tasks, predictors among them — reuses
// every array and the predictor index, and allocates nothing.
func TestTickPlanRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates where the plain build does not")
	}
	d := testClusterDaemon(t)
	mux := d.mux()
	control(t, mux, http.MethodPost, "/tasks", tenantTask("pred", 0, 2), http.StatusCreated)
	for i := 0; i < 8; i++ {
		body := tenantTask(fmt.Sprintf("task-%d", i), 8*i, 8)
		if i%2 == 0 {
			body = strings.TrimSuffix(body, "}") + `,"gate":{"predictor":"pred"}}`
		}
		control(t, mux, http.MethodPost, "/tasks", body, http.StatusCreated)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var p host.Plan
	p.Refresh(&d.hosted)
	if p.Len() != 2+8*8 || d.hosted.Task("task-0").Pred != "pred" {
		t.Fatalf("plan of %d monitors, task-0 gated on %q: want 66 and gated on pred", p.Len(), d.hosted.Task("task-0").Pred)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Refresh(&d.hosted) }); allocs != 0 {
		t.Errorf("refreshing a plan over an unchanged set allocates %.2f times, want 0", allocs)
	}
}

// TestTickPlanFollowsClusterAdmissions: the plan is rebuilt only when the
// hosted set changed, and then before the next monitor is ticked — a newly
// admitted task samples on the next tick, an evicted one never again.
func TestTickPlanFollowsClusterAdmissions(t *testing.T) {
	d := testClusterDaemon(t)
	mux := d.mux()
	for i := 0; i < 4; i++ {
		control(t, mux, http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%d", i), 8*i, 8), http.StatusCreated)
	}
	for i := 0; i < 5; i++ {
		d.tickOnce()
	}
	gen := d.plan.Gen()
	d.tickOnce()
	if d.plan.Gen() != gen || gen != d.hosted.Gen() {
		t.Fatalf("plan generation moved from %d to %d with the hosted set at %d and unchanged", gen, d.plan.Gen(), d.hosted.Gen())
	}

	victim := d.hosted.Task("task-1").Mons
	control(t, mux, http.MethodPost, "/tasks", tenantTask("task-4", 32, 8), http.StatusCreated)
	control(t, mux, http.MethodDelete, "/tasks/task-1", "", http.StatusNoContent)
	if got := observations(d.reg, "task-4", "m0"); got != 0 {
		t.Fatalf("task-4 sampled %d times before any tick", got)
	}
	ticksAtEvict := victim[0].Stats().Ticks
	d.tickOnce()
	if got := observations(d.reg, "task-4", "m0"); got != 1 {
		t.Errorf("task-4/m0 sampled %d times on the tick after its admission, want 1", got)
	}
	for i := 0; i < 20; i++ {
		d.tickOnce()
	}
	for _, m := range victim {
		if got := m.Stats().Ticks; got != ticksAtEvict {
			t.Errorf("evicted monitor %s ticked %d times after eviction", m.ID(), got-ticksAtEvict)
		}
	}
	if want := []string{"task-0", "task-2", "task-3", "task-4"}; !reflect.DeepEqual(d.hosted.Names(), want) {
		t.Errorf("hosted order %v, want %v", d.hosted.Names(), want)
	}
	if d.plan.Len() != 32 {
		t.Errorf("plan holds %d monitors, want 32", d.plan.Len())
	}
}

// TestTickPlanFollowsShardOwnership is the same staleness check in shard
// mode, where the hosted set changes from inside node.Tick (StartTask and
// StopTask) and the plan is refreshed after it.
func TestTickPlanFollowsShardOwnership(t *testing.T) {
	d, err := newShardDaemon(options{
		interval: time.Millisecond, maxInterval: 10, out: io.Discard,
		shardID: "a", peerListen: "127.0.0.1:0",
		beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}()
	mux := d.mux()
	for i := 0; i < 3; i++ {
		control(t, mux, http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%d", i), 8*i, 8), http.StatusCreated)
	}
	// Ownership lands on the node's next tick, and that same tick's monitor
	// pass already covers the started tasks.
	d.tickOnce()
	if d.plan.Len() != 24 {
		t.Fatalf("plan holds %d monitors after the first tick, want 24", d.plan.Len())
	}
	if got := observations(d.reg, "task-2", "m7"); got != 1 {
		t.Fatalf("task-2/m7 sampled %d times on the tick that started it, want 1", got)
	}
	gen := d.plan.Gen()
	for i := 0; i < 5; i++ {
		d.tickOnce()
	}
	if d.plan.Gen() != gen {
		t.Fatalf("plan generation moved from %d to %d with ownership unchanged", gen, d.plan.Gen())
	}

	d.mu.Lock()
	victim := d.hosted.Task("task-1").Mons
	d.mu.Unlock()
	control(t, mux, http.MethodPost, "/tasks", tenantTask("task-3", 24, 8), http.StatusCreated)
	control(t, mux, http.MethodDelete, "/tasks/task-1", "", http.StatusNoContent)
	ticksAtRemove := victim[0].Stats().Ticks
	d.tickOnce()
	if got := observations(d.reg, "task-3", "m0"); got != 1 {
		t.Errorf("task-3/m0 sampled %d times on the tick after its admission, want 1", got)
	}
	for i := 0; i < 20; i++ {
		d.tickOnce()
	}
	for _, m := range victim {
		if got := m.Stats().Ticks; got != ticksAtRemove {
			t.Errorf("removed monitor %s ticked %d times after removal", m.ID(), got-ticksAtRemove)
		}
	}
	if want := []string{"task-0", "task-2", "task-3"}; !reflect.DeepEqual(d.hosted.Names(), want) {
		t.Errorf("hosted order %v, want %v", d.hosted.Names(), want)
	}
	if st := d.node.Status(); len(st.Owned) != 3 {
		t.Errorf("node owns %v, want three tasks", st.Owned)
	}
}

// TestDaemonsTickInSameOrder: two daemons given the same admission sequence
// read their agents in the same order on every tick, which no map iteration
// could promise: each tick walks the tasks in admission order, each task's
// monitors as listed, from a start that moves with the tick number. The
// daemons here are what both modes tick, a hosted set and its plan, and the
// agents record their own reads in process: with HTTP agents several reads
// are out at once, and the order requests reach a server is no order at all.
func TestDaemonsTickInSameOrder(t *testing.T) {
	// Not in name order, with an eviction and a re-admission in the middle.
	admissions := []struct {
		name string
		n    int
	}{{"zeta", 2}, {"alpha", 1}, {"mid", 3}, {"beta", 1}, {"omega", 3}, {"alpha2", 2}, {"gamma", 1}, {"delta", 2}}
	const ticks = 8
	reads := map[string][]string{}
	for _, daemon := range []string{"d1", "d2"} {
		var h host.Set
		admit := func(name string, n int) {
			mons := make([]*volley.Monitor, n)
			for i := range mons {
				id := fmt.Sprintf("%s/m%d", name, i)
				m, err := volley.NewMonitor(volley.MonitorConfig{
					ID: id, Task: name,
					Agent: volley.AgentFunc(func() (float64, error) {
						reads[daemon] = append(reads[daemon], id)
						return 1, nil
					}),
					Sampler: volley.SamplerConfig{Threshold: 1e12, Err: 0.05, MaxInterval: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				mons[i] = m
			}
			h.Put(name, host.Task{Mons: mons})
		}
		for _, a := range admissions {
			admit(a.name, a.n)
		}
		h.Remove("mid")
		admit("mid", 2)
		var p host.Plan
		p.Refresh(&h)
		for i := 0; i < ticks; i++ {
			p.Tick(time.Duration(i) * time.Millisecond)
		}
	}
	var order []string
	for _, a := range admissions {
		for j := 0; j < a.n && a.name != "mid"; j++ {
			order = append(order, fmt.Sprintf("%s/m%d", a.name, j))
		}
	}
	order = append(order, "mid/m0", "mid/m1") // re-admitted last

	if !reflect.DeepEqual(reads["d1"], reads["d2"]) {
		t.Errorf("the two daemons read their agents in different orders:\n d1 %v\n d2 %v", reads["d1"], reads["d2"])
	}
	got := reads["d1"]
	if len(got) != ticks*len(order) {
		t.Fatalf("%d agent reads over %d ticks of %d monitors", len(got), ticks, len(order))
	}
	starts := map[int]bool{}
	for k := 0; k < ticks; k++ {
		walk := got[k*len(order) : (k+1)*len(order)]
		start := slices.Index(order, walk[0])
		if want := slices.Concat(order[start:], order[:start]); !slices.Equal(walk, want) {
			t.Errorf("tick %d read %v, want the admission order %v from entry %d", k, walk, order, start)
		}
		starts[start] = true
	}
	if len(starts) < ticks/2 {
		t.Errorf("%d ticks started their walks at only %d different entries", ticks, len(starts))
	}
}

// TestHTTPAgentsReadOncePerDueTick is what can still be said of a tick's
// reads from the server's side once they overlap: every tick the agents read
// are exactly those of the monitors that were due, each once; every value a
// tick samples was served during that tick (a read started early is never
// left for a later tick to find); and nothing is in flight when tickOnce
// returns, so the server has seen exactly as many requests as the monitors
// have counted samples. The agents' instruments say the same of the layer:
// the first tick, on which everything is due, opens a window's worth of
// connections and no tick after it opens another, the idle connections never
// outnumber the window, and the stage histogram has one entry per read.
func TestHTTPAgentsReadOncePerDueTick(t *testing.T) {
	var mu sync.Mutex
	tick := 0
	served := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served[strings.TrimPrefix(r.URL.Path, "/")]++
		now := tick
		mu.Unlock()
		fmt.Fprint(w, now)
	}))
	defer srv.Close()

	d := testClusterDaemon(t)
	mux := d.mux()
	// More monitors than the read-ahead window, in tasks wide and narrow,
	// with intervals free to grow so that the due set changes from tick to
	// tick. An in-process task sits in the middle of the plan.
	var ids []string
	for _, task := range []struct {
		name string
		n    int
	}{{"a", 3}, {"b", agentWindow + 5}, {"c", 1}, {"d", 12}} {
		var mons []string
		for i := 0; i < task.n; i++ {
			id := fmt.Sprintf("%s/mon/m%d", task.name, i)
			ids = append(ids, id)
			mons = append(mons, fmt.Sprintf(`{"id":"m%d","source":"%s/%s"}`, i, srv.URL, id))
		}
		control(t, mux, http.MethodPost, "/tasks",
			fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.3,"maxInterval":4,"monitors":[%s]}`, task.name, strings.Join(mons, ",")), http.StatusCreated)
		if task.name == "b" {
			control(t, mux, http.MethodPost, "/tasks", tenantTask("inproc", 0, 4), http.StatusCreated)
		}
	}
	monitors := map[string]*volley.Monitor{}
	for _, name := range d.hosted.Names() {
		for _, m := range d.hosted.Task(name).Mons {
			monitors[m.ID()] = m
		}
	}
	samples := func() map[string]int {
		out := map[string]int{}
		for _, id := range ids {
			st := monitors[id].Stats()
			if st.AgentErrors != 0 {
				t.Fatalf("%s: %d agent errors", id, st.AgentErrors)
			}
			out[id] = int(st.Samples + st.PollSamples)
		}
		return out
	}

	skipped := 0
	for k := 1; k <= 60; k++ {
		mu.Lock()
		tick = k
		mu.Unlock()
		before := samples()
		d.tickOnce()
		after := samples()
		mu.Lock()
		for _, id := range ids {
			switch after[id] - before[id] {
			case 0:
				skipped++
			case 1:
			default:
				t.Errorf("tick %d sampled %s %d times", k, id, after[id]-before[id])
			}
			if served[id] != after[id] {
				t.Errorf("after tick %d the server has served %s %d times and its monitor has sampled %d times", k, id, served[id], after[id])
			}
		}
		mu.Unlock()
		for i := range d.plan.Len() {
			if m, got, fed := d.plan.Entry(i); fed && slices.Contains(ids, m.ID()) && got != float64(k) {
				t.Errorf("tick %d sampled %v from %s, a value served during tick %v", k, got, m.ID(), got)
			}
		}
		if got := d.agents.dials.Value(); got != agentWindow {
			t.Errorf("%d connections opened by the end of tick %d, want %d", got, k, agentWindow)
		}
		d.agents.mu.Lock()
		if d.agents.nIdle != agentWindow || len(d.agents.idle) != 1 {
			t.Errorf("after tick %d: %d idle connections to %d destinations, want all %d to the one server", k, d.agents.nIdle, len(d.agents.idle), agentWindow)
		}
		d.agents.mu.Unlock()
	}
	if skipped == 0 {
		t.Error("every monitor was due on every tick: the due set was never a proper subset")
	}
	// A request left in flight would reach the server sooner or later.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for id, n := range samples() {
		if served[id] != n {
			t.Errorf("the server has served %s %d times, its monitor has sampled %d times", id, served[id], n)
		}
		total += n
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range []string{
		fmt.Sprintf(`volley_stage_seconds_count{stage="agent_read"} %d`, total),
		fmt.Sprintf("volley_agent_dials_total %d", agentWindow),
		"volley_agent_retries_total 0",
		"volley_agent_read_errors_total 0",
		fmt.Sprintf("volley_agent_idle_conns %d", agentWindow),
	} {
		if !strings.Contains(rec.Body.String(), line+"\n") {
			t.Errorf("the scrape lacks %q", line)
		}
	}
}

// TestEvictedTaskLeavesNoConnections: the idle connections of a task that was
// evicted, to a host nothing reads any more, are closed by the tick loop once
// they have been idle too long, and their destination is forgotten; the
// connections of a task still hosted are not.
func TestEvictedTaskLeavesNoConnections(t *testing.T) {
	// Long against a tick that the scheduler holds up: under a loaded `go
	// test ./...` a gap of 50 ms between two ticks was seen, which idles the
	// hosted task's connections out too.
	const idle = 250 * time.Millisecond
	old := agentIdleTimeout
	agentIdleTimeout = idle
	t.Cleanup(func() { agentIdleTimeout = old })
	serve := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "1") })
	gone, kept := httptest.NewServer(serve), httptest.NewServer(serve)
	defer gone.Close()
	defer kept.Close()

	d := testClusterDaemon(t)
	mux := d.mux()
	for name, base := range map[string]string{"gone": gone.URL, "kept": kept.URL} {
		control(t, mux, http.MethodPost, "/tasks",
			fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.05,"maxInterval":1,"monitors":[{"id":"m0","source":"%s/0"},{"id":"m1","source":"%s/1"}]}`, name, base, base), http.StatusCreated)
	}
	idleConns := func() (n, dests int) {
		d.agents.mu.Lock()
		defer d.agents.mu.Unlock()
		return d.agents.nIdle, len(d.agents.idle)
	}
	d.tickOnce()
	if n, dests := idleConns(); n != 4 || dests != 2 {
		t.Fatalf("%d idle connections to %d destinations after a tick of four monitors on two hosts", n, dests)
	}
	control(t, mux, http.MethodDelete, "/tasks/gone", "", http.StatusNoContent)
	// Long enough for two sweeps to fall due, ticking all the while.
	for end := time.Now().Add(3 * idle); time.Now().Before(end); time.Sleep(idle / 10) {
		d.tickOnce()
	}
	if n, dests := idleConns(); n != 2 || dests != 1 {
		t.Errorf("%d idle connections to %d destinations after the eviction, want the hosted task's 2 to its 1", n, dests)
	}
	if got := d.agents.dials.Value(); got != 4 {
		t.Errorf("%d connections opened, want 4: the hosted task's were closed under it", got)
	}
}

// TestStalledAgentsCostOneTimeout: agents that accept a request and never
// answer it hold a tick up for one timeout between them, not one each — their
// requests went out together and their deadlines fall together — the healthy
// monitors of the plan are sampled in that tick all the same, every stalled
// monitor counts its one failure, and the next tick tries each again on a new
// connection.
func TestStalledAgentsCostOneTimeout(t *testing.T) {
	const timeout, stalled, healthy = 100 * time.Millisecond, agentWindow / 2, agentWindow / 2
	shortTimeout(t, timeout)
	// A listener nobody accepts from: the kernel completes the handshake and
	// keeps what is written.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "1") }))
	defer srv.Close()

	d := testClusterDaemon(t)
	mux := d.mux()
	task := func(name, base string, n int) {
		var mons []string
		for i := 0; i < n; i++ {
			mons = append(mons, fmt.Sprintf(`{"id":"m%d","source":"%s/%d"}`, i, base, i))
		}
		control(t, mux, http.MethodPost, "/tasks",
			fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.05,"maxInterval":1,"monitors":[%s]}`, name, strings.Join(mons, ",")), http.StatusCreated)
	}
	task("up-a", srv.URL, healthy/2)
	task("down", "http://"+hole.Addr().String(), stalled)
	task("up-b", srv.URL, healthy-healthy/2)

	for tick := 1; tick <= 2; tick++ {
		start := time.Now()
		d.tickOnce()
		if took := time.Since(start); took < timeout || took > 2*timeout {
			t.Errorf("tick %d with %d stalled agents took %v, want about one timeout of %v", tick, stalled, took, timeout)
		}
		for _, name := range d.hosted.Names() {
			for _, m := range d.hosted.Task(name).Mons {
				st := m.Stats()
				if name == "down" && (st.AgentErrors != uint64(tick) || st.Samples != 0) {
					t.Errorf("tick %d: stalled %s has %d errors and %d samples", tick, m.ID(), st.AgentErrors, st.Samples)
				}
				if name != "down" && (st.AgentErrors != 0 || st.Samples != uint64(tick)) {
					t.Errorf("tick %d: healthy %s has %d errors and %d samples", tick, m.ID(), st.AgentErrors, st.Samples)
				}
			}
		}
		// Every stalled read was given up with its connection.
		if got, want := d.agents.dials.Value(), uint64(healthy+tick*stalled); got != want {
			t.Errorf("%d connections opened by the end of tick %d, want %d", got, tick, want)
		}
		if got := d.agents.readErrors.Value(); got != uint64(tick*stalled) {
			t.Errorf("%d read errors by the end of tick %d, want %d", got, tick, tick*stalled)
		}
	}
}

// TestControlPlaneStageObservedOncePerTick: in both cluster modes the one
// tickOnce times the control plane's tick into
// volley_stage_seconds{stage="control_plane"}, one observation a tick, and
// the family still carries the agent reads beside it.
func TestControlPlaneStageObservedOncePerTick(t *testing.T) {
	cl := testClusterDaemon(t)
	sh, err := newShardDaemon(options{
		interval: time.Millisecond, maxInterval: 10, out: io.Discard,
		shardID: "a", peerListen: "127.0.0.1:0",
		beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sh.close(); err != nil {
			t.Error(err)
		}
	}()
	for name, h := range map[string]*monitorHost{"-shards": cl.monitorHost, "-shard-id": sh.monitorHost} {
		for i := 0; i < 7; i++ {
			h.tickOnce()
		}
		if got := h.controlTime.Count(); got != 7 {
			t.Errorf("%s: %d control-plane observations in 7 ticks", name, got)
		}
		var page bytes.Buffer
		h.reg.WritePrometheus(&page)
		for _, want := range []string{
			`volley_stage_seconds_count{stage="control_plane"} 7`,
			`volley_stage_seconds_count{stage="agent_read"} 0`,
		} {
			if !strings.Contains(page.String(), want+"\n") {
				t.Errorf("%s: /metrics lacks %q", name, want)
			}
		}
	}
}
