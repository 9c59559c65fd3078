package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"volley/internal/obs"
	"volley/internal/transport"
)

// gossipFleet is a set of nodes on one inter-shard Memory fabric, each with
// its own metrics registry so a test can read what it gossiped.
type gossipFleet struct {
	t     *testing.T
	inter *transport.Memory
	ids   []string
	nodes map[string]*Node
	regs  map[string]*obs.Registry
	step  int
}

var gossipMonitors = []string{"m1", "m2"}

func newGossipFleet(t *testing.T, inter *transport.Memory, ids []string) *gossipFleet {
	t.Helper()
	f := &gossipFleet{
		t: t, inter: inter, ids: ids,
		nodes: make(map[string]*Node), regs: make(map[string]*obs.Registry),
	}
	for _, id := range ids {
		f.start(id)
	}
	return f
}

// start brings up a node with an empty catalog under id, replacing (and
// first taking off the fabric) whatever node ran under it before.
func (f *gossipFleet) start(id string) {
	f.t.Helper()
	if f.nodes[id] != nil {
		if err := f.inter.Deregister(id); err != nil {
			f.t.Fatal(err)
		}
	}
	local := transport.NewMemory()
	sinkNet(f.t, local, gossipMonitors...)
	var peers []Member
	for _, p := range f.ids {
		if p != id {
			peers = append(peers, Member{ID: p, Addr: p})
		}
	}
	reg := obs.NewRegistry()
	// Horizons long enough that loss alone never kills a peer, and no
	// snapshot traffic: these tests are about the catalog.
	cfg := NodeConfig{
		ID: id, Addr: id, Peers: peers, Inter: f.inter, Local: local,
		BeaconEvery: 1, SuspectAfter: 20, DeadAfter: 40,
		SnapshotEvery: 1 << 30, Replicas: 16, Metrics: reg,
	}
	n, err := NewNode(cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	f.nodes[id], f.regs[id] = n, reg
}

func (f *gossipFleet) tick(rounds int) {
	for i := 0; i < rounds; i++ {
		f.step++
		now := time.Duration(f.step) * time.Second
		for _, id := range f.ids {
			f.nodes[id].Tick(now)
		}
	}
}

func (f *gossipFleet) counter(id, name string) uint64 {
	return f.regs[id].Counter(name, "").Value()
}

func (f *gossipFleet) rowsSent() uint64 {
	var sum uint64
	for _, id := range f.ids {
		sum += f.counter(id, "volley_cluster_catalog_rows_sent_total")
	}
	return sum
}

// catalogImage is a node's whole catalog — tombstones too — as comparable
// text, plus its digest.
func catalogImage(n *Node) (string, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var b bytes.Buffer
	for _, r := range n.catalogOrder {
		fmt.Fprintf(&b, "%s v%d deleted=%v %s\n", r.Spec.Name, r.Version, r.Deleted, r.body)
	}
	return b.String(), n.catalogDigest
}

// converged reports whether every node holds the same rows under the same
// digest, and describes the first difference when not.
func (f *gossipFleet) converged() (bool, string) {
	rows0, digest0 := catalogImage(f.nodes[f.ids[0]])
	for _, id := range f.ids[1:] {
		rows, digest := catalogImage(f.nodes[id])
		if (rows == rows0) != (digest == digest0) {
			f.t.Fatalf("digest and rows disagree about %s vs %s: digests %016x %016x, rows\n%s---\n%s",
				f.ids[0], id, digest0, digest, rows0, rows)
		}
		if rows != rows0 {
			return false, fmt.Sprintf("%s holds\n%s%s holds\n%s", f.ids[0], rows0, id, rows)
		}
	}
	return true, ""
}

// settle ticks until the fleet has converged, failing past the bound.
func (f *gossipFleet) settle(bound int, what string) int {
	f.t.Helper()
	for i := 0; i <= bound; i++ {
		if ok, _ := f.converged(); ok {
			return i
		}
		f.tick(1)
	}
	_, diff := f.converged()
	f.t.Fatalf("%s: catalogs still differ %d ticks after the last change:\n%s", what, bound, diff)
	return 0
}

// TestEqualVersionConflictConverges: two shards admit the same name with
// different specs in the same tick, so both rows carry the same version.
// "Higher version wins" alone would leave each shard with its own row
// forever; the tie-break makes both keep the same one, and whichever shard
// runs the task runs it from that row.
func TestEqualVersionConflictConverges(t *testing.T) {
	f := newGossipFleet(t, transport.NewMemory(), []string{"a", "b"})
	f.tick(2)
	low, high := nodeSpec("t", gossipMonitors...), nodeSpec("t", gossipMonitors...)
	low.Threshold, high.Threshold = 100, 200
	if err := f.nodes["a"].Admit(low, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.nodes["b"].Admit(high, nil); err != nil {
		t.Fatal(err)
	}
	f.tick(1)
	f.settle(8, "same name, same version")
	f.tick(1) // a shard that lost the tie starts the task again from the winner

	rows := f.nodes["a"].Catalog()
	if len(rows) != 1 || rows[0].Version != 1 {
		t.Fatalf("catalog = %+v, want the one row at version 1", rows)
	}
	owner := singleOwner(t, "t", f.nodes)
	owner.mu.Lock()
	running := owner.owned["t"].spec.Threshold
	owner.mu.Unlock()
	if running != rows[0].Spec.Threshold {
		t.Errorf("owner %s runs threshold %v, the catalog says %v", owner.cfg.ID, running, rows[0].Spec.Threshold)
	}

	// A tombstone and a live row at the same version: the tombstone wins on
	// both sides.
	if err := f.nodes["a"].Remove("t"); err != nil {
		t.Fatal(err)
	}
	f.nodes["b"].mu.Lock()
	held := f.nodes["b"].catalog["t"]
	readmit := held.CatalogRecord
	readmit.Version, readmit.Spec.Threshold = 2, 300
	f.nodes["b"].putRowLocked(readmit, []byte(`{"spec":{"name":"t","threshold":300,"err":0.05,"monitors":["m1","m2"]}}`))
	f.nodes["b"].mu.Unlock()
	f.tick(1)
	f.settle(8, "tombstone against live row")
	if rows := f.nodes["b"].Catalog(); len(rows) != 0 {
		t.Errorf("live row beat the tombstone of the same version: %+v", rows)
	}
}

// TestCatalogConvergesUnderFaults drives a fleet through seeded admit/evict
// churn on a fabric that loses, duplicates and reorders messages, through a
// partition that heals and a node that restarts with nothing, and requires
// that a bounded number of ticks after the last change every node holds the
// same rows under the same digest — and that from then on no catalog row
// is sent at all.
func TestCatalogConvergesUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ids := []string{"a", "b", "c", "d", "e"}[:3+rng.Intn(3)]
			inter := transport.NewMemory(
				transport.WithLoss(0.2, seed), transport.WithDuplication(0.1, seed+1), transport.WithReorder(0.2, seed+2))
			f := newGossipFleet(t, inter, ids)

			admitted := map[string]bool{}
			names := 0
			churn := func(ticks int) {
				for i := 0; i < ticks; i++ {
					for _, id := range ids {
						switch rng.Intn(6) {
						case 0, 1: // admit a fresh name
							names++
							name := fmt.Sprintf("task-%03d", names)
							if err := f.nodes[id].Admit(nodeSpec(name, gossipMonitors...), []byte(name)); err != nil {
								t.Fatal(err)
							}
							admitted[name] = true
						case 2: // evict something this node knows to be live
							if rows := f.nodes[id].Catalog(); len(rows) > 0 {
								name := rows[rng.Intn(len(rows))].Spec.Name
								if err := f.nodes[id].Remove(name); err != nil {
									t.Fatal(err)
								}
								delete(admitted, name)
							}
						}
					}
					f.tick(1)
				}
			}

			churn(20)
			f.settle(80, "churn")

			// Two shards admit different names in the same tick from the same
			// high-water: equal versions, nothing newer on either side, so
			// only the full exchange can carry each row across.
			if err := f.nodes[ids[0]].Admit(nodeSpec("twin-x", gossipMonitors...), nil); err != nil {
				t.Fatal(err)
			}
			if err := f.nodes[ids[1]].Admit(nodeSpec("twin-y", gossipMonitors...), nil); err != nil {
				t.Fatal(err)
			}
			admitted["twin-x"], admitted["twin-y"] = true, true
			f.settle(80, "equal versions, different names")

			// A partition, shorter than the death horizon, with churn on both
			// sides of it.
			inter.Partition(ids[:1], ids[1:])
			churn(15)
			inter.Heal()
			f.settle(80, "partition healed")

			// A node comes back with an empty catalog and a peer table from its
			// flags, nothing else.
			f.start(ids[len(ids)-1])
			churn(5)
			took := f.settle(80, "restart with an empty catalog")

			live := map[string]bool{}
			for _, r := range f.nodes[ids[0]].Catalog() {
				live[r.Spec.Name] = true
			}
			if len(live) != len(admitted) {
				t.Errorf("converged on %d live tasks, the churn left %d", len(live), len(admitted))
			}
			for name := range admitted {
				if !live[name] {
					t.Errorf("task %s was admitted and never evicted, but no catalog holds it", name)
				}
			}

			// Converged catalogs are not yet silence: a node keeps attaching
			// rows for a peer until it hears that peer's new digest. Give each
			// pair a few beacons to get one through the loss, then require
			// that nothing more is sent.
			f.tick(30)
			sent := f.rowsSent()
			f.tick(50)
			if after := f.rowsSent(); after != sent {
				t.Errorf("%d catalog rows sent in 50 ticks after convergence, want 0", after-sent)
			}
			if ok, diff := f.converged(); !ok {
				t.Errorf("catalogs drifted apart again:\n%s", diff)
			}
			t.Logf("%d nodes, %d names, %d live; last settle took %d ticks; %d rows and %d full syncs sent in all",
				len(ids), names, len(admitted), took, sent, func() (n uint64) {
					for _, id := range ids {
						n += f.counter(id, "volley_cluster_catalog_full_syncs_total")
					}
					return n
				}())
		})
	}
}

// beaconLengths records the payload length of every beacon the fabric
// carries while fn runs.
func beaconLengths(inter *transport.Memory, fn func()) []int {
	var lens []int
	inter.SetFilter(func(_, _ string, msg transport.Message) bool {
		if msg.Kind == transport.KindShardBeacon {
			lens = append(lens, len(msg.Payload))
		}
		return false
	})
	fn()
	inter.SetFilter(nil)
	return lens
}

// admitMany admits tasks named prefix-0000… on the fleet's first node.
func (f *gossipFleet) admitMany(prefix string, n int) {
	f.t.Helper()
	for i := 0; i < n; i++ {
		spec := nodeSpec(fmt.Sprintf("%s-%04d", prefix, i), gossipMonitors...)
		if err := f.nodes[f.ids[0]].Admit(spec, []byte(`{"monitors":[{"id":"m1","source":"cmd:true"},{"id":"m2","source":"cmd:true"}]}`)); err != nil {
			f.t.Fatal(err)
		}
	}
}

// TestBeaconSizeIndependentOfCatalog: once catalogs agree, a beacon is the
// member table plus a fixed-width digest and high-water — byte for byte as
// long with 2 000 tasks in the catalog as with one.
func TestBeaconSizeIndependentOfCatalog(t *testing.T) {
	inter := transport.NewMemory()
	f := newGossipFleet(t, inter, []string{"a", "b"})
	measure := func(what string) int {
		f.settle(4, what)
		f.tick(2) // each side hears the other's settled digest
		lens := beaconLengths(inter, func() { f.tick(6) })
		if len(lens) < 6 {
			t.Fatalf("%s: saw %d beacons in 6 ticks of 2 nodes", what, len(lens))
		}
		for _, l := range lens {
			if l != lens[0] {
				t.Fatalf("%s: converged beacons of %d and %d bytes", what, lens[0], l)
			}
		}
		return lens[0]
	}
	f.admitMany("one", 1)
	f.tick(1)
	small := measure("1 task")
	f.admitMany("many", 1999)
	// The tick that carries the rows is not a converged one, and is large.
	if lens := beaconLengths(inter, func() { f.tick(1) }); len(lens) == 0 || maxOf(lens) < 1999*100 {
		t.Fatalf("the beacon after 1 999 admissions carried %v bytes, want the rows", lens)
	}
	large := measure("2 000 tasks")
	if small != large {
		t.Errorf("converged beacon is %d bytes at 1 task and %d at 2 000", small, large)
	}
	if rows := f.counter("a", "volley_cluster_catalog_rows_sent_total"); rows < 2000 || rows > 3*2000 {
		t.Errorf("a sent %d catalog rows for 2 000 admissions, want each once or twice", rows)
	}
	if got := f.counter("a", "volley_cluster_beacon_bytes_total"); got < uint64(1999*100) {
		t.Errorf("beacon bytes counter %d does not cover the rows sent", got)
	}
	t.Logf("converged beacon: %d bytes", small)
}

func maxOf(v []int) int {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// TestNodeTickConvergedAllocs: a tick of a node whose catalog agrees with
// its peer's, with no snapshot due, allocates nothing, whether or not a
// beacon is due — the beacon is sent out of the node's scratch — on the
// sending side or (the Memory fabric delivers inside Send) the receiving
// one. Both nodes tick, so that neither starts suspecting the other.
func TestNodeTickConvergedAllocs(t *testing.T) {
	for _, tasks := range []int{1, 2000} {
		for _, beaconEvery := range []int{1, 1 << 20} {
			f := newGossipFleet(t, transport.NewMemory(), []string{"a", "b"})
			f.admitMany("task", tasks)
			f.tick(1)
			f.settle(4, "admissions")
			f.tick(4)
			if beaconEvery > 1 {
				// Same catalogs, but no beacon comes due during the measurement.
				for _, n := range f.nodes {
					n.membership.mu.Lock()
					n.membership.cfg.BeaconEvery = beaconEvery
					n.membership.mu.Unlock()
				}
				f.tick(3)
			}
			sent := f.counter("a", "volley_cluster_beacon_bytes_total")
			const runs = 15 // fewer ticks than the suspicion horizon
			allocs := testing.AllocsPerRun(runs, func() { f.tick(1) })
			beacons := f.counter("a", "volley_cluster_beacon_bytes_total") - sent
			if allocs != 0 || (beacons == 0) != (beaconEvery > 1) {
				t.Errorf("%d tasks, a beacon every %d ticks: %v allocations per tick of both nodes, a sent %d beacon bytes in %d ticks; want no allocation, and beacons only when due",
					tasks, beaconEvery, allocs, beacons, runs)
			}
		}
	}
}

// TestMemberTableRoundTrip: the binary member table carries what Members
// reports, merging it twice allocates nothing the second time, and a table
// that does not parse changes nothing.
func TestMemberTableRoundTrip(t *testing.T) {
	mk := func(id string, seeds ...Member) *Membership {
		m, err := NewMembership(MembershipConfig{Self: Member{ID: id, Addr: id + ":1"}, Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := mk("a", Member{ID: "b", Addr: "b:1"}, Member{ID: "c", Addr: "c:1"})
	a.Tick(time.Second)
	b := mk("b", Member{ID: "a", Addr: "a:1"})
	table := a.AppendTable(nil)
	rest, err := b.ObserveTable("a", append(table, "rows"...))
	if err != nil || string(rest) != "rows" {
		t.Fatalf("ObserveTable = %q, %v; want the bytes after the table", rest, err)
	}
	if addr, ok := b.AddrOf("c"); !ok || addr != "c:1" {
		t.Errorf("b did not learn c from a's table: %q %v", addr, ok)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.ObserveTable("a", table); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("merging a table of known members allocates %v times, want 0", allocs)
	}
	before := b.Version()
	for cut := 1; cut < len(table); cut++ {
		if _, err := b.ObserveTable("a", table[:cut]); err == nil {
			t.Errorf("table cut at %d of %d bytes parsed", cut, len(table))
		}
	}
	bad := append([]byte(nil), table...)
	bad[len(bad)-1] = 9 // the last row's state
	if _, err := b.ObserveTable("a", bad); err == nil {
		t.Error("member state 9 parsed")
	}
	if b.Version() != before {
		t.Error("a malformed table changed the membership")
	}
}
