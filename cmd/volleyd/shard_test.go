package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"volley/internal/cluster"
)

// TestShardCatalogGossipGoesQuiet runs two shard daemons over real TCP and
// watches the catalog gossip the way an operator would, through /cluster
// and /metrics: tasks admitted on one shard reach the other, the two
// /cluster catalog digests come to agree, and from then on the rows-sent
// counters stand still while beacons keep flowing — with the snapshot
// frames of the tasks each shard owns replicating to the other throughout.
func TestShardCatalogGossipGoesQuiet(t *testing.T) {
	daemons := newShardPair(t)
	const tasks = 12
	for i := 0; i < tasks; i++ {
		control(t, daemons[0].mux(), http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%02d", i), 4*i, 4), http.StatusCreated)
	}
	round := func() { shardRound(daemons) }
	status := func(d *shardDaemon) cluster.NodeStatus { return shardStatus(t, d) }
	scrape := func(d *shardDaemon, name string) float64 { return shardScrape(t, d, name) }
	agreed := false
	for i := 0; i < 2000 && !agreed; i++ {
		round()
		a, b := status(daemons[0]), status(daemons[1])
		agreed = a.CatalogLive == tasks && b.CatalogLive == tasks && a.CatalogDigest == b.CatalogDigest &&
			len(a.Owned)+len(b.Owned) == tasks && len(a.Snapshots)+len(b.Snapshots) == tasks
	}
	if !agreed {
		t.Fatalf("catalogs never agreed:\n a %+v\n b %+v", status(daemons[0]), status(daemons[1]))
	}
	if scrape(daemons[0], "volley_cluster_catalog_rows_sent_total") < tasks {
		t.Error("shard a reports fewer catalog rows sent than tasks admitted on it")
	}
	// Each shard still has to hear the other's agreeing digest once.
	for i := 0; i < 20; i++ {
		round()
	}
	var rows, sent [2]float64
	for i, d := range daemons {
		rows[i] = scrape(d, "volley_cluster_catalog_rows_sent_total")
		sent[i] = scrape(d, "volley_cluster_beacon_bytes_total")
	}
	for i := 0; i < 100; i++ {
		round()
	}
	for i, d := range daemons {
		if got := scrape(d, "volley_cluster_catalog_rows_sent_total"); got != rows[i] {
			t.Errorf("shard %s sent %v catalog rows in 100 ticks of an agreed catalog, want 0", d.opts.shardID, got-rows[i])
		}
		got := scrape(d, "volley_cluster_beacon_bytes_total") - sent[i]
		if got <= 0 || got > 100*64 {
			t.Errorf("shard %s sent %v beacon bytes in 100 ticks, want a few dozen per beacon", d.opts.shardID, got)
		}
	}
	if a, b := status(daemons[0]), status(daemons[1]); a.CatalogDigest != b.CatalogDigest {
		t.Errorf("catalog digests drifted apart: %016x vs %016x", a.CatalogDigest, b.CatalogDigest)
	}
}

// newShardPair builds shards a and b, peers over loopback TCP, closed when
// the test ends. Neither ticks until the test does (shardRound).
func newShardPair(t *testing.T) []*shardDaemon {
	t.Helper()
	ports := freePorts(t, 2)
	var daemons []*shardDaemon
	for i, id := range []string{"a", "b"} {
		other := 1 - i
		d, err := newShardDaemon(options{
			interval: time.Millisecond, maxInterval: 10, out: io.Discard,
			shardID: id, peerListen: ports[i], peers: fmt.Sprintf("%c=%s", 'a'+other, ports[other]),
			beaconEvery: 2, suspectAfter: 200, deadAfter: 400, snapshotEvery: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := d.close(); err != nil {
				t.Error(err)
			}
		})
		daemons = append(daemons, d)
	}
	return daemons
}

// shardRound ticks the shards in step; TCP delivers in between.
func shardRound(daemons []*shardDaemon) {
	for _, d := range daemons {
		d.tickOnce()
	}
	time.Sleep(2 * time.Millisecond)
}

// shardStatus is a shard's GET /cluster.
func shardStatus(t *testing.T, d *shardDaemon) (st cluster.NodeStatus) {
	t.Helper()
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// shardScrape reads one unlabelled metric off a shard's /metrics.
func shardScrape(t *testing.T, d *shardDaemon, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return promValue(t, rec.Body.String(), name)
}

// TestShardGeneratesOnlyWhatItHosts: a POST /tasks checks its workload:
// sources without generating them — an invalid family configuration is
// still refused there with 400 — and once the ring has placed the tasks each
// shard holds exactly the series of the monitors it owns, read through
// volley_workload_series and volley_workload_series_bytes. A shard DELETE
// gossips, and both shards then hold nothing.
func TestShardGeneratesOnlyWhatItHosts(t *testing.T) {
	daemons := newShardPair(t)
	a := daemons[0]
	for _, bad := range []string{
		"workload:tenant?index=0&tenants=4&groups=8", // groups > tenants
		"workload:tenant?index=0&windows=1",
		"workload:entropy?index=0&nodes=4&windows=1",
		"workload:tenantagg?group=0&tenants=4&groups=8",
	} {
		control(t, a.mux(), http.MethodPost, "/tasks",
			fmt.Sprintf(`{"name":"bad","threshold":1,"err":0.05,"monitors":[{"id":"m","source":%q}]}`, bad),
			http.StatusBadRequest)
	}
	const tasks, per, windows = 8, 4, 256 // tenantTask's family
	for i := 0; i < tasks; i++ {
		control(t, a.mux(), http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%02d", i), per*i, per), http.StatusCreated)
	}
	// No tick has run: the ring has placed nothing, and the POSTs generated
	// nothing.
	if got := shardScrape(t, a, "volley_workload_series"); got != 0 {
		t.Fatalf("shard a holds %v series after the POSTs, before any placement; want 0", got)
	}
	placed := func() bool {
		sa, sb := shardStatus(t, daemons[0]), shardStatus(t, daemons[1])
		return len(sa.Owned)+len(sb.Owned) == tasks
	}
	for i := 0; i < 2000 && !placed(); i++ {
		shardRound(daemons)
	}
	if !placed() {
		t.Fatal("the ring never placed every task")
	}
	for _, d := range daemons {
		owned := len(shardStatus(t, d).Owned)
		series, bytes := shardScrape(t, d, "volley_workload_series"), shardScrape(t, d, "volley_workload_series_bytes")
		t.Logf("shard %s owns %d tasks and holds %v series", d.opts.shardID, owned, series)
		if want := float64(owned * per); series != want {
			t.Errorf("shard %s owns %d tasks of %d monitors and holds %v series, want %v", d.opts.shardID, owned, per, series, want)
		}
		if want := series * windows * 8; bytes != want {
			t.Errorf("shard %s holds %v series bytes, want %v", d.opts.shardID, bytes, want)
		}
	}
	// Deleted on the other shard, the tombstones gossip and every series goes.
	for i := 0; i < tasks; i++ {
		control(t, daemons[1].mux(), http.MethodDelete, fmt.Sprintf("/tasks/task-%02d", i), "", http.StatusNoContent)
	}
	empty := func() bool {
		return shardScrape(t, daemons[0], "volley_workload_series") == 0 && shardScrape(t, daemons[1], "volley_workload_series") == 0
	}
	for i := 0; i < 2000 && !empty(); i++ {
		shardRound(daemons)
	}
	for _, d := range daemons {
		if n, b := shardScrape(t, d, "volley_workload_series"), shardScrape(t, d, "volley_workload_series_bytes"); n != 0 || b != 0 {
			t.Errorf("shard %s still holds %v series, %v bytes after the tasks were deleted", d.opts.shardID, n, b)
		}
	}
}
