package cluster

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"volley/internal/alerts"
	"volley/internal/obs"
	"volley/internal/transport"
)

// testNodes builds a fully meshed set of nodes over one shared Memory
// fabric (the inter-shard network) with one private Memory per node as its
// local monitor network. Sink handlers for the given monitor addresses are
// registered on every local net so owned coordinators can poll them. Every
// node has its own alert registry, instruments and tracer, as every shard
// process has.
func testNodes(t *testing.T, ids []string, monitors []string) (map[string]*Node, *transport.Memory) {
	t.Helper()
	inter := transport.NewMemory()
	members := make([]Member, len(ids))
	for i, id := range ids {
		members[i] = Member{ID: id, Addr: id}
	}
	nodes := make(map[string]*Node, len(ids))
	for _, id := range ids {
		local := transport.NewMemory()
		sinkNet(t, local, monitors...)
		var peers []Member
		for _, m := range members {
			if m.ID != id {
				peers = append(peers, m)
			}
		}
		reg, tracer := obs.NewRegistry(), obs.NewTracer(256)
		n, err := NewNode(NodeConfig{
			ID:            id,
			Addr:          id,
			Peers:         peers,
			Inter:         inter,
			Local:         local,
			Metrics:       reg,
			Tracer:        tracer,
			Alerts:        alerts.New(alerts.Config{Node: id, Metrics: reg, Tracer: tracer}),
			BeaconEvery:   1,
			SuspectAfter:  3,
			DeadAfter:     6,
			SnapshotEvery: 2,
			RetryAfter:    1,
			Replicas:      16,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	return nodes, inter
}

// nodeSpec is a task spec whose coordinator will neither re-tune nor
// declare monitors dead inside a test's tick budget, so an allowance
// override survives verbatim until it is exported.
func nodeSpec(name string, monitors ...string) TaskSpec {
	return TaskSpec{
		Name:         name,
		Threshold:    100,
		Err:          0.05,
		Monitors:     monitors,
		UpdatePeriod: 1 << 20,
		DeadAfter:    1 << 20,
	}
}

// tickNodes drives the given nodes through rounds ticks on a shared
// one-second virtual clock starting after *step, advancing *step.
func tickNodes(step *int, rounds int, nodes ...*Node) {
	for i := 0; i < rounds; i++ {
		*step++
		now := time.Duration(*step) * time.Second
		for _, n := range nodes {
			n.Tick(now)
		}
	}
}

// scrapeNode renders a node's instruments as Prometheus text.
func scrapeNode(n *Node) string {
	var buf bytes.Buffer
	n.cfg.Metrics.WritePrometheus(&buf)
	return buf.String()
}

// singleOwner asserts exactly one of the nodes owns the task and returns it.
func singleOwner(t *testing.T, task string, nodes map[string]*Node) *Node {
	t.Helper()
	var owner *Node
	for _, n := range nodes {
		for _, name := range n.Owned() {
			if name != task {
				continue
			}
			if owner != nil {
				t.Fatalf("task %q owned by both %s and %s", task, owner.cfg.ID, n.cfg.ID)
			}
			owner = n
		}
	}
	if owner == nil {
		t.Fatalf("task %q owned by nobody", task)
	}
	return owner
}

func TestNodeWarmRecoveryAfterCrash(t *testing.T) {
	monitors := []string{"m1", "m2"}
	nodes, inter := testNodes(t, []string{"a", "b", "c"}, monitors)
	all := []*Node{nodes["a"], nodes["b"], nodes["c"]}

	step := 0
	if err := nodes["a"].Admit(nodeSpec("t1", monitors...), nil); err != nil {
		t.Fatal(err)
	}
	// Let the catalog gossip and the ring settle ownership.
	tickNodes(&step, 5, all...)
	owner := singleOwner(t, "t1", nodes)

	// Every shard placed the task identically (same digest, same owner
	// view) — cross-check via the membership digests.
	d := all[0].Membership().Digest()
	for _, n := range all[1:] {
		if got := n.Membership().Digest(); got != d {
			t.Fatalf("digests diverge before crash: %016x vs %016x", got, d)
		}
	}

	// Override the allowance so recovery has something distinguishable
	// from cold-start defaults to prove it restored.
	want := map[string]float64{"m1": 0.04, "m2": 0.01}
	if err := owner.SetAllowance("t1", want); err != nil {
		t.Fatal(err)
	}
	// An episode open at the owner, confirmed three times: it must ride
	// the snapshot to the successor.
	for i := 0; i < 3; i++ {
		owner.cfg.Alerts.Raise("t1", time.Duration(step)*time.Second, 170)
	}
	episode := owner.cfg.Alerts.ExportOpen("t1")
	if len(episode) != 1 || episode[0].Occurrences != 3 {
		t.Fatalf("owner's live episode = %+v, want one with 3 occurrences", episode)
	}
	// Let the override replicate (SnapshotEvery 2 plus the ack round trip).
	tickNodes(&step, 4, all...)

	var holder *Node
	for _, n := range all {
		if n == owner {
			continue
		}
		if _, ok := n.Store().Get("t1"); ok {
			holder = n
		}
	}
	if holder == nil {
		t.Fatal("no survivor holds a replicated snapshot")
	}

	// kill -9 equivalent on the Memory fabric: the owner's inter-shard
	// address vanishes and it stops ticking.
	if err := inter.Deregister(owner.cfg.ID); err != nil {
		t.Fatal(err)
	}
	var survivors []*Node
	survivorMap := make(map[string]*Node)
	for id, n := range nodes {
		if n != owner {
			survivors = append(survivors, n)
			survivorMap[id] = n
		}
	}

	// Past the liveness horizon the survivors declare the owner dead,
	// rebuild the ring, and the successor re-admits the task warm.
	tickNodes(&step, 10, survivors...)
	newOwner := singleOwner(t, "t1", survivorMap)
	if newOwner == owner {
		t.Fatal("dead owner still owns the task")
	}

	st := newOwner.Status()
	if st.ColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0 (snapshot was replicated)", st.ColdStarts)
	}
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
	var rec *RecoveryInfo
	for _, o := range st.Owned {
		if o.Name == "t1" {
			rec = o.Recovery
		}
	}
	if rec == nil || !rec.Warm {
		t.Fatalf("recovery info = %+v, want warm", rec)
	}
	if rec.PrevOwner != owner.cfg.ID {
		t.Errorf("recovery prev owner = %q, want %q", rec.PrevOwner, owner.cfg.ID)
	}
	if rec.Epoch == 0 {
		t.Error("recovery epoch = 0, want the shipped snapshot's epoch")
	}
	got, ok := newOwner.Allowance("t1")
	if !ok {
		t.Fatal("new owner reports no allowance")
	}
	for m, w := range want {
		if math.Abs(got[m]-w) > 1e-9 {
			t.Errorf("recovered allowance[%s] = %v, want %v (cold defaults would be even)", m, got[m], w)
		}
	}

	// The episode survived the warm recovery: still open at the successor,
	// same window, its occurrence count carried, nothing counted lost.
	live := newOwner.cfg.Alerts.ExportOpen("t1")
	if len(live) != 1 || live[0].Status != alerts.StatusOpen {
		t.Fatalf("successor's live alerts = %+v, want the predecessor's open episode", live)
	}
	if live[0].Window != episode[0].Window || live[0].Occurrences != episode[0].Occurrences {
		t.Errorf("episode after warm recovery: window %v, %d occurrences; want window %v, %d occurrences",
			live[0].Window, live[0].Occurrences, episode[0].Window, episode[0].Occurrences)
	}
	for _, want := range []string{
		"volley_cluster_recoveries_total 1",
		"volley_cluster_cold_starts_total 0",
		"volley_alerts_lost_total 0",
	} {
		if prom := scrapeNode(newOwner); !strings.Contains(prom, want+"\n") {
			t.Errorf("successor's scrape lacks %q", want)
		}
	}

	// The survivors' membership views converge to identical digests.
	if da, db := survivors[0].Membership().Digest(), survivors[1].Membership().Digest(); da != db {
		t.Errorf("survivor digests diverge: %016x vs %016x", da, db)
	}
}

// TestNodeColdStartUnderSnapshotPartition is the chaos soak: the fault
// filter cuts every snapshot frame on the inter-shard fabric (the
// replication link is partitioned while beacons keep flowing), the owner
// dies, and the cluster must degrade to a cold start — exactly one new
// owner, the loss counted and visible, and no deadlock on the way.
func TestNodeColdStartUnderSnapshotPartition(t *testing.T) {
	monitors := []string{"m1", "m2"}
	nodes, inter := testNodes(t, []string{"a", "b", "c"}, monitors)
	all := []*Node{nodes["a"], nodes["b"], nodes["c"]}

	inter.SetFilter(func(from, to string, msg transport.Message) bool {
		return msg.Kind == transport.KindSnapshot
	})

	step := 0
	if err := nodes["a"].Admit(nodeSpec("t1", monitors...), nil); err != nil {
		t.Fatal(err)
	}
	tickNodes(&step, 5, all...)
	owner := singleOwner(t, "t1", nodes)
	if err := owner.SetAllowance("t1", map[string]float64{"m1": 0.04, "m2": 0.01}); err != nil {
		t.Fatal(err)
	}

	// Run long enough for several ship attempts, their retries, and at
	// least one abandonment. No frame gets through.
	tickNodes(&step, 12, all...)
	for _, n := range all {
		if n.Store().Len() != 0 {
			t.Fatalf("shard %s holds a snapshot across a partitioned link", n.cfg.ID)
		}
	}

	if err := inter.Deregister(owner.cfg.ID); err != nil {
		t.Fatal(err)
	}
	var survivors []*Node
	survivorMap := make(map[string]*Node)
	for id, n := range nodes {
		if n != owner {
			survivors = append(survivors, n)
			survivorMap[id] = n
		}
	}
	tickNodes(&step, 10, survivors...)

	newOwner := singleOwner(t, "t1", survivorMap)
	st := newOwner.Status()
	if st.ColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1 (the loss must be loud)", st.ColdStarts)
	}
	if st.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0 (no snapshot survived the partition)", st.Recoveries)
	}
	var rec *RecoveryInfo
	for _, o := range st.Owned {
		if o.Name == "t1" {
			rec = o.Recovery
		}
	}
	if rec == nil || rec.Warm {
		t.Fatalf("recovery info = %+v, want a cold takeover record", rec)
	}
	if rec.PrevOwner != owner.cfg.ID {
		t.Errorf("cold start prev owner = %q, want %q", rec.PrevOwner, owner.cfg.ID)
	}
	// Whatever episode was open at the dead owner is unknowable: the loss
	// is counted and traced (alerts.TestLost covers the history row).
	for _, want := range []string{
		"volley_cluster_cold_starts_total 1",
		"volley_cluster_recoveries_total 0",
		"volley_alerts_lost_total 1",
	} {
		if prom := scrapeNode(newOwner); !strings.Contains(prom, want+"\n") {
			t.Errorf("new owner's scrape lacks %q", want)
		}
	}
	lost := false
	for _, e := range newOwner.cfg.Tracer.Events() {
		if e.Type == obs.EventAlertsLost && e.Task == "t1" && e.Peer == owner.cfg.ID {
			lost = true
		}
	}
	if !lost {
		t.Error("no alerts-lost trace event naming the task and the dead owner")
	}

	// Degraded, not deadlocked: the healed fabric resumes replication.
	inter.SetFilter(nil)
	tickNodes(&step, 6, survivors...)
	replicated := false
	for _, n := range survivors {
		if n != newOwner && n.Store().Len() > 0 {
			replicated = true
		}
	}
	if !replicated {
		t.Error("replication did not resume after the partition healed")
	}
}

func TestNodeTombstoneEvictsEverywhere(t *testing.T) {
	monitors := []string{"m1"}
	nodes, _ := testNodes(t, []string{"a", "b"}, monitors)
	all := []*Node{nodes["a"], nodes["b"]}

	step := 0
	if err := nodes["a"].Admit(nodeSpec("t1", monitors...), nil); err != nil {
		t.Fatal(err)
	}
	tickNodes(&step, 4, all...)
	singleOwner(t, "t1", nodes)

	// Remove on the non-admitting shard: the tombstone must still spread.
	if err := nodes["b"].Remove("t1"); err != nil {
		t.Fatal(err)
	}
	tickNodes(&step, 4, all...)
	for _, n := range all {
		if len(n.Owned()) != 0 {
			t.Errorf("shard %s still owns tasks after eviction", n.cfg.ID)
		}
		if len(n.Catalog()) != 0 {
			t.Errorf("shard %s still lists evicted task", n.cfg.ID)
		}
		checkHealthAgrees(t, "after the eviction", n)
	}

	// Re-admitting the same name is legal once the tombstone is in place.
	if err := nodes["a"].Admit(nodeSpec("t1", monitors...), nil); err != nil {
		t.Fatal(err)
	}
	tickNodes(&step, 4, all...)
	singleOwner(t, "t1", nodes)
	for _, n := range all {
		if h := checkHealthAgrees(t, "after the re-admission", n); h.CatalogLive != 1 {
			t.Errorf("shard %s counts %d live catalog rows after the re-admission, want 1", n.cfg.ID, h.CatalogLive)
		}
	}
}
