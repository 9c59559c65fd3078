// Alert continuity across shard failure in the in-process cluster: a live
// episode must ride the replicated allowance snapshot into a warm
// recovery, and a cold start (no snapshot held) must make the potential
// loss loud through volley_alerts_lost_total, the trace, and the history
// sink.
package volley_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"volley"
	"volley/internal/cluster"
)

// alertRecoveryRig is one three-shard cluster with a snapshot store, an
// alert registry, and a single task whose monitors emit a fixed value.
type alertRecoveryRig struct {
	cl       *volley.Cluster
	areg     *volley.AlertRegistry
	reg      *volley.Metrics
	tracer   *volley.Tracer
	hist     *bytes.Buffer
	store    *cluster.SnapshotStore
	monitors []*volley.Monitor
	step     int
}

func newAlertRecoveryRig(t *testing.T, task string, values []float64) *alertRecoveryRig {
	t.Helper()
	rig := &alertRecoveryRig{
		reg:    volley.NewMetrics(),
		tracer: volley.NewTracer(1024),
		hist:   &bytes.Buffer{},
		store:  cluster.NewSnapshotStore("store", nil, nil),
	}
	rig.areg = volley.NewAlertRegistry(volley.AlertConfig{
		Node: "rec", Metrics: rig.reg, Tracer: rig.tracer, History: rig.hist,
	})
	net := volley.NewMemoryNetwork()
	cl, err := volley.NewCluster(volley.ClusterConfig{
		Name:      "rec",
		Shards:    []string{"s1", "s2", "s3"},
		Network:   net,
		Tracer:    rig.tracer,
		Metrics:   rig.reg,
		Alerts:    rig.areg,
		Snapshots: rig.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.cl = cl
	ids := make([]string, len(values))
	for i := range ids {
		ids[i] = task + "-m" + string(rune('0'+i))
	}
	if _, err := cl.Admit(volley.ClusterTaskSpec{
		Name: task, Threshold: 100, Err: 0.05, Monitors: ids,
	}); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		v := values[i]
		m, err := volley.NewMonitor(volley.MonitorConfig{
			ID: id, Task: task,
			Agent: volley.AgentFunc(func() (float64, error) { return v, nil }),
			Sampler: volley.SamplerConfig{
				Threshold: 25, Err: 0.05 / float64(len(values)), MaxInterval: 10,
			},
			Network: net, Coordinator: cl.CoordinatorAddr(task),
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.monitors = append(rig.monitors, m)
	}
	return rig
}

// tick advances the cluster and every monitor n steps.
func (rig *alertRecoveryRig) tick(t *testing.T, n int) {
	t.Helper()
	for ; n > 0; n-- {
		now := time.Duration(rig.step) * time.Second
		rig.cl.Tick(now)
		for _, m := range rig.monitors {
			if _, _, err := m.Tick(now); err != nil {
				t.Fatalf("step %d: %v", rig.step, err)
			}
		}
		rig.step++
	}
}

// liveAlert returns the single live alert for task, if any.
func (rig *alertRecoveryRig) liveAlert(task string) (volley.Alert, bool) {
	for _, a := range rig.areg.List() {
		if a.Task == task && (a.Status == volley.AlertOpen || a.Status == volley.AlertAcked) {
			return a, true
		}
	}
	return volley.Alert{}, false
}

// scrape renders the rig's metrics registry as Prometheus text.
func (rig *alertRecoveryRig) scrape() string {
	var buf bytes.Buffer
	rig.reg.WritePrometheus(&buf)
	return buf.String()
}

// TestClusterWarmRecoveryCarriesAlert: with a replicated snapshot held, a
// shard crash recovers the task warm and the live alert episode survives —
// same window, nothing counted lost, occurrences still climbing under the
// successor.
func TestClusterWarmRecoveryCarriesAlert(t *testing.T) {
	rig := newAlertRecoveryRig(t, "hot", []float64{80, 90}) // 170 > 100: always violating

	var before volley.Alert
	for found := false; !found; {
		rig.tick(t, 1)
		before, found = rig.liveAlert("hot")
		if rig.step > 300 {
			t.Fatal("no alert opened after 300 steps of sustained violation")
		}
	}

	// The replicated frame must carry the live episode.
	if err := rig.cl.ReplicateTask("hot"); err != nil {
		t.Fatal(err)
	}
	entry, ok := rig.store.Get("hot")
	if !ok {
		t.Fatal("snapshot store holds no frame after ReplicateTask")
	}
	held, err := entry.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(held.Alerts) != 1 || held.Alerts[0].Window != before.Window {
		t.Fatalf("snapshot alerts = %+v, want the live episode (window %v)", held.Alerts, before.Window)
	}

	owner, ok := rig.cl.Owner("hot")
	if !ok {
		t.Fatal("task unplaced")
	}
	if err := rig.cl.CrashShard(owner); err != nil {
		t.Fatal(err)
	}
	rig.tick(t, 60) // successor coordinator keeps confirming the violation

	after, ok := rig.liveAlert("hot")
	if !ok {
		t.Fatal("live alert gone after warm recovery")
	}
	if after.ID != before.ID || after.Window != before.Window {
		t.Errorf("episode identity changed across warm recovery: %d/%v → %d/%v",
			before.ID, before.Window, after.ID, after.Window)
	}
	if after.Occurrences <= before.Occurrences {
		t.Errorf("occurrences %d not climbing past %d under the successor", after.Occurrences, before.Occurrences)
	}
	prom := rig.scrape()
	for _, want := range []string{
		"volley_cluster_recoveries_total 1",
		"volley_cluster_cold_starts_total 0",
		"volley_alerts_lost_total 0",
		"volley_alerts_raised_total 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestClusterColdStartCountsAlertsLost: a crash with no replicated
// snapshot cold-starts the task; with no surviving local episode the
// registry cannot know what was open at the dead shard, so the loss is
// counted, traced, and written to the history sink.
func TestClusterColdStartCountsAlertsLost(t *testing.T) {
	rig := newAlertRecoveryRig(t, "idle", []float64{10, 10}) // never violates
	rig.tick(t, 30)
	if a, found := rig.liveAlert("idle"); found {
		t.Fatalf("quiet task alerted: %+v", a)
	}

	owner, ok := rig.cl.Owner("idle")
	if !ok {
		t.Fatal("task unplaced")
	}
	if err := rig.cl.CrashShard(owner); err != nil {
		t.Fatal(err)
	}
	rig.tick(t, 10)

	prom := rig.scrape()
	for _, want := range []string{
		"volley_cluster_cold_starts_total 1",
		"volley_cluster_recoveries_total 0",
		"volley_alerts_lost_total 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	lost := false
	for _, e := range rig.tracer.Events() {
		if e.Type == volley.TraceAlertsLost && e.Task == "idle" && e.Peer == owner {
			lost = true
		}
	}
	if !lost {
		t.Error("no alerts-lost trace event naming the task and the crashed shard")
	}
	if !strings.Contains(rig.hist.String(), `"status":"lost"`) {
		t.Errorf("history sink carries no lost row:\n%s", rig.hist.String())
	}
}
