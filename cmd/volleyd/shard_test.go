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
		defer func() {
			if err := d.close(); err != nil {
				t.Error(err)
			}
		}()
		daemons = append(daemons, d)
	}
	const tasks = 12
	for i := 0; i < tasks; i++ {
		control(t, daemons[0].mux(), http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%02d", i), 4*i, 4), http.StatusCreated)
	}
	// The shards tick in step; TCP delivers in between.
	round := func() {
		for _, d := range daemons {
			d.tickOnce()
		}
		time.Sleep(2 * time.Millisecond)
	}
	status := func(d *shardDaemon) (st cluster.NodeStatus) {
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	scrape := func(d *shardDaemon, name string) float64 {
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return promValue(t, rec.Body.String(), name)
	}
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
