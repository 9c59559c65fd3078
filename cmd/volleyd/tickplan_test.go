package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"volley"
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
	newAlertPrinter(&out, "s1").print("cpu", 3*time.Second, 7.5)
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
// through the in-process network, sketch feed. Nothing on it may allocate.
func TestClusterDaemonTickZeroAlloc(t *testing.T) {
	d := testClusterDaemon(t)
	mux := d.mux()
	for i := 0; i < 4; i++ {
		control(t, mux, http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%d", i), 64*i, 64), http.StatusCreated)
	}
	for i := 0; i < 200; i++ {
		d.tickOnce()
	}
	if len(d.plan.mons) != 256 {
		t.Fatalf("plan holds %d monitors, want 256", len(d.plan.mons))
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
	gen := d.plan.gen
	d.tickOnce()
	if d.plan.gen != gen || gen != d.hosted.gen {
		t.Fatalf("plan generation moved from %d to %d with the hosted set at %d and unchanged", gen, d.plan.gen, d.hosted.gen)
	}

	victim := d.hosted.mons["task-1"]
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
	if want := []string{"task-0", "task-2", "task-3", "task-4"}; !reflect.DeepEqual(d.hosted.order, want) {
		t.Errorf("hosted order %v, want %v", d.hosted.order, want)
	}
	if len(d.plan.mons) != 32 || len(d.plan.sks) != 32 {
		t.Errorf("plan holds %d monitors and %d sketches, want 32 of each", len(d.plan.mons), len(d.plan.sks))
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
	if len(d.plan.mons) != 24 {
		t.Fatalf("plan holds %d monitors after the first tick, want 24", len(d.plan.mons))
	}
	if got := observations(d.reg, "task-2", "m7"); got != 1 {
		t.Fatalf("task-2/m7 sampled %d times on the tick that started it, want 1", got)
	}
	gen := d.plan.gen
	for i := 0; i < 5; i++ {
		d.tickOnce()
	}
	if d.plan.gen != gen {
		t.Fatalf("plan generation moved from %d to %d with ownership unchanged", gen, d.plan.gen)
	}

	d.mu.Lock()
	victim := d.hosted.mons["task-1"]
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
	if want := []string{"task-0", "task-2", "task-3"}; !reflect.DeepEqual(d.hosted.order, want) {
		t.Errorf("hosted order %v, want %v", d.hosted.order, want)
	}
	if st := d.node.Status(); len(st.Owned) != 3 {
		t.Errorf("node owns %v, want three tasks", st.Owned)
	}
}

// TestDaemonsTickInSameOrder: two daemons given the same admission sequence
// read their agents in the same order on every tick, which no map iteration
// could promise: each tick walks the tasks in admission order, each task's
// monitors as listed, from a start that moves with the tick number.
func TestDaemonsTickInSameOrder(t *testing.T) {
	var mu sync.Mutex
	reads := map[string][]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		daemon, path, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		mu.Lock()
		reads[daemon] = append(reads[daemon], path)
		mu.Unlock()
		fmt.Fprint(w, "1")
	}))
	defer srv.Close()

	task := func(daemon, name string, n int) string {
		var mons []string
		for i := 0; i < n; i++ {
			mons = append(mons, fmt.Sprintf(`{"id":"m%d","source":"%s/%s/%s/m%d"}`, i, srv.URL, daemon, name, i))
		}
		return fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.05,"maxInterval":1,"monitors":[%s]}`, name, strings.Join(mons, ","))
	}
	// Not in name order, with an eviction and a re-admission in the middle.
	admissions := []struct {
		name string
		n    int
	}{{"zeta", 2}, {"alpha", 1}, {"mid", 3}, {"beta", 1}, {"omega", 3}, {"alpha2", 2}, {"gamma", 1}, {"delta", 2}}
	const ticks = 8
	for _, daemon := range []string{"d1", "d2"} {
		d := testClusterDaemon(t)
		mux := d.mux()
		for _, a := range admissions {
			control(t, mux, http.MethodPost, "/tasks", task(daemon, a.name, a.n), http.StatusCreated)
		}
		control(t, mux, http.MethodDelete, "/tasks/mid", "", http.StatusNoContent)
		control(t, mux, http.MethodPost, "/tasks", task(daemon, "mid", 2), http.StatusCreated)
		for i := 0; i < ticks; i++ {
			d.tickOnce()
		}
	}
	var order []string
	for _, a := range admissions {
		for j := 0; j < a.n && a.name != "mid"; j++ {
			order = append(order, fmt.Sprintf("%s/m%d", a.name, j))
		}
	}
	order = append(order, "mid/m0", "mid/m1") // re-admitted last

	mu.Lock()
	defer mu.Unlock()
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

// TestFanOutArmsEachDependentGateOnce: a predictor's local violation arms
// every gate of every dependent exactly once and wakes its monitor;
// volley_cluster_gate_arms_total counts the relaxed→armed transitions, not
// the signals that merely extend a hold-down.
func TestFanOutArmsEachDependentGateOnce(t *testing.T) {
	const holdDown = 3
	reg := volley.NewMetrics()
	d := &clusterDaemon{gateArms: reg.Counter("volley_cluster_gate_arms_total", "")}
	h := newHostedSet()
	gates := map[string][]*volley.Gate{}
	gatePred := map[string]string{}
	level := map[string]*float64{}
	host := func(name, pred string, n int) {
		v := new(float64)
		level[name] = v
		mons := make([]*volley.Monitor, n)
		var gs []*volley.Gate
		for i := range mons {
			cfg := volley.MonitorConfig{
				ID: fmt.Sprintf("%s/m%d", name, i), Task: name,
				Agent:   volley.AgentFunc(func() (float64, error) { return *v, nil }),
				Sampler: volley.SamplerConfig{Threshold: 10, Err: 0.01, MaxInterval: 1},
			}
			if pred != "" {
				g, err := volley.NewGate(50, holdDown)
				if err != nil {
					t.Fatal(err)
				}
				gs = append(gs, g)
				cfg.Gate = g
			}
			m, err := volley.NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mons[i] = m
		}
		if pred != "" {
			gates[name], gatePred[name] = gs, pred
		}
		h.put(name, mons)
	}
	host("free", "", 2) // ungated and nobody's predictor
	host("pred-a", "", 1)
	host("dep-a1", "pred-a", 3)
	host("pred-b", "", 2)
	host("dep-a2", "pred-a", 2)
	host("dep-b", "pred-b", 2)

	var p tickPlan
	p.refresh(&h, nil, gates, gatePred)
	step := 0
	tick := func() {
		p.tickMonitors(time.Duration(step) * time.Second)
		step++
		d.fanOutGateSignals(&p)
	}
	armed := func(task string) (n int) {
		for _, g := range gates[task] {
			if g.Armed() {
				n++
			}
		}
		return n
	}
	samples := func(task string) (n uint64) {
		for _, m := range h.mons[task] {
			n += m.Stats().Samples
		}
		return n
	}

	tick() // everyone samples once, then the gated stretch to 50 ticks
	tick()
	if got := d.gateArms.Value(); got != 0 {
		t.Fatalf("%d gates armed with every predictor quiet", got)
	}
	// An ungated non-predictor violating arms nothing.
	*level["free"] = 99
	tick()
	if got := d.gateArms.Value(); got != 0 {
		t.Fatalf("%d gates armed by a task nothing is gated on", got)
	}

	before := samples("dep-a1") + samples("dep-a2")
	*level["pred-a"] = 99
	tick()
	if got := d.gateArms.Value(); got != 5 {
		t.Errorf("gate arms = %d after pred-a's violation, want 5 (dep-a1's 3 + dep-a2's 2)", got)
	}
	for _, task := range []string{"dep-a1", "dep-a2"} {
		for i, g := range gates[task] {
			if g.Arms() != 1 {
				t.Errorf("%s gate %d armed %d times, want once", task, i, g.Arms())
			}
		}
	}
	if armed("dep-a1") != 3 || armed("dep-a2") != 2 || armed("dep-b") != 0 {
		t.Errorf("armed gates: dep-a1 %d, dep-a2 %d, dep-b %d; want 3, 2, 0", armed("dep-a1"), armed("dep-a2"), armed("dep-b"))
	}
	// Still violating: the signals extend the hold-down, no new arms, and
	// the woken monitors sample on the very next tick.
	tick()
	tick()
	if got := d.gateArms.Value(); got != 5 {
		t.Errorf("gate arms = %d while the hold-down is being extended, want 5 still", got)
	}
	if got := samples("dep-a1") + samples("dep-a2") - before; got != 10 {
		t.Errorf("pred-a's dependents sampled %d times over the two ticks after being woken, want 10", got)
	}
	if got := samples("dep-b"); got != 2 {
		t.Errorf("dep-b sampled %d times, want 2 (nobody woke it)", got)
	}

	// Quiet long enough for the hold-down to lapse, then a second
	// violation is a second set of transitions.
	*level["pred-a"] = 1
	for i := 0; i <= holdDown; i++ {
		tick()
	}
	if armed("dep-a1")+armed("dep-a2") != 0 {
		t.Fatalf("gates still armed %d ticks after the last signal", holdDown+1)
	}
	*level["pred-a"], *level["pred-b"] = 99, 99
	tick()
	if got := d.gateArms.Value(); got != 12 {
		t.Errorf("gate arms = %d after both predictors violated, want 12 (5 + 5 again + dep-b's 2)", got)
	}
}
