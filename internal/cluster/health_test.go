package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"volley/internal/alloctest"
	"volley/internal/obs"
	"volley/internal/transport"
)

// healthMonitors is the monitor set of every task in these tests.
var healthMonitors = func() []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = fmt.Sprintf("m%d", i)
	}
	return out
}()

// placedNames returns n task names the ring places on owner and whose
// successor, were owner to leave, is succ ("" for any).
func placedNames(n *Node, prefix, owner, succ string, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if p, _ := n.ring.Place(name); p != owner {
			continue
		}
		if s, _ := n.ring.Successor(name, owner); succ != "" && s != succ {
			continue
		}
		out = append(out, name)
	}
	return out
}

// checkHealthAgrees compares every field Health and Status both report,
// and the live-row count with the rows Catalog lists.
func checkHealthAgrees(t *testing.T, when string, n *Node) NodeHealth {
	t.Helper()
	h, st := n.Health(), n.Status()
	if live := len(n.Catalog()); h.CatalogLive != live {
		t.Errorf("%s, shard %s: %d live catalog rows counted, %d listed", when, n.cfg.ID, h.CatalogLive, live)
	}
	if h.ID != st.ID || h.RingDigest != st.RingDigest || !slices.Equal(h.RingMembers, st.RingMembers) ||
		h.Owned != len(st.Owned) || h.CatalogLive != st.CatalogLive ||
		h.ColdStarts != st.ColdStarts || h.Recoveries != st.Recoveries {
		t.Errorf("%s, shard %s: Health %+v disagrees with Status {ID:%s RingDigest:%d RingMembers:%v Owned:%d CatalogLive:%d ColdStarts:%d Recoveries:%d}",
			when, n.cfg.ID, h, st.ID, st.RingDigest, st.RingMembers, len(st.Owned), st.CatalogLive, st.ColdStarts, st.Recoveries)
	}
	return h
}

// TestNodeHealthAgreesWithStatus: the counts the liveness probe reads agree
// with the full status dump on every shard, before a takeover and after one
// in which the successor recovers one task warm and starts another cold.
func TestNodeHealthAgreesWithStatus(t *testing.T) {
	nodes, inter := testNodes(t, []string{"a", "b", "c"}, healthMonitors)
	all := []*Node{nodes["a"], nodes["b"], nodes["c"]}
	a := nodes["a"]
	pair := placedNames(a, "paired", "a", "b", 2)
	warm, cold := pair[0], pair[1]

	step := 0
	for _, name := range append([]string{warm}, placedNames(a, "filler", "c", "", 3)...) {
		if err := a.Admit(nodeSpec(name, healthMonitors...), nil); err != nil {
			t.Fatal(err)
		}
	}
	tickNodes(&step, 10, all...)
	for _, n := range all {
		checkHealthAgrees(t, "before the takeover", n)
	}
	if _, ok := nodes["b"].Store().Get(warm); !ok {
		t.Fatalf("b holds no snapshot of %s", warm)
	}

	// Snapshots stop getting through; the second task of a's is placed but
	// never replicated, so b will have to start it cold.
	inter.SetFilter(func(_, _ string, msg transport.Message) bool { return msg.Kind == transport.KindSnapshot })
	if err := a.Admit(nodeSpec(cold, healthMonitors...), nil); err != nil {
		t.Fatal(err)
	}
	tickNodes(&step, 5, all...)
	if h := checkHealthAgrees(t, "with the unreplicated task placed", a); h.Owned != 2 {
		t.Fatalf("a owns %d tasks, want %s and %s", h.Owned, warm, cold)
	}

	if err := inter.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	tickNodes(&step, 10, nodes["b"], nodes["c"])
	h := checkHealthAgrees(t, "after the takeover", nodes["b"])
	checkHealthAgrees(t, "after the takeover", nodes["c"])
	if h.ColdStarts != 1 || h.Recoveries != 1 || len(h.RingMembers) != 2 {
		t.Errorf("b after taking over from a: %+v; want one cold start, one recovery, two ring members", h)
	}
}

// TestNodeHealthAllocsDoNotGrowWithTheShard: a health read costs the same
// at 8 owned tasks as at 128 — 16 monitors each, with as many of the peer's
// snapshots held — where Status copies every allocation and every snapshot.
func TestNodeHealthAllocsDoNotGrowWithTheShard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// Measured: 6 allocations, 264 B at either size (the ring-member and
	// digest slices, the digest's sort); Status 18 KB at 8 tasks, 296 KB at
	// 128. The bounds leave headroom for another Go release.
	const allocBound, byteBound = 8, 512
	var allocs [2]float64
	for i, owned := range []int{8, 128} {
		nodes, _ := testNodes(t, []string{"a", "b"}, healthMonitors)
		a, b := nodes["a"], nodes["b"]
		names := append(placedNames(a, "task", "a", "", owned), placedNames(a, "task", "b", "", owned)...)
		for _, name := range names {
			if err := a.Admit(nodeSpec(name, healthMonitors...), nil); err != nil {
				t.Fatal(err)
			}
		}
		step := 0
		tickNodes(&step, 10, a, b)
		if h := a.Health(); h.Owned != owned || a.Store().Len() != owned {
			t.Fatalf("a owns %d tasks and holds %d snapshots, want %d of each", h.Owned, a.Store().Len(), owned)
		}

		allocs[i] = testing.AllocsPerRun(200, func() { _ = a.Health() })
		bytes := bytesPerCall(200, func() { _ = a.Health() })
		t.Logf("%d owned tasks: Health %.0f allocations, %.0f B; Status %.0f B",
			owned, allocs[i], bytes, bytesPerCall(5, func() { _ = a.Status() }))
		if allocs[i] > allocBound || bytes > byteBound {
			t.Errorf("%d owned tasks: Health allocates %.0f times, %.0f B; want at most %d, %d B", owned, allocs[i], bytes, allocBound, byteBound)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Health allocates %.0f times at 8 owned tasks but %.0f at 128; want the same", allocs[0], allocs[1])
	}
}

// bytesPerCall is the heap bytes one call of f allocates, averaged over runs
// calls, in the least of three rounds.
func bytesPerCall(runs int, f func()) float64 {
	least, _ := alloctest.Least(3, nil, func() {
		for range runs {
			f()
		}
	})
	return float64(least) / float64(runs)
}

// scrapingHost scrapes the node's registry from another goroutine while the
// node places a task, as an HTTP scrape can at any moment, and keeps the page.
type scrapingHost struct {
	t    *testing.T
	reg  *obs.Registry
	page string
}

func (h *scrapingHost) StartTask(TaskSpec, []byte, string) error {
	done := make(chan string, 1)
	go func() {
		var b bytes.Buffer
		h.reg.WritePrometheus(&b)
		done <- b.String()
	}()
	select {
	case h.page = <-done:
	case <-time.After(2 * time.Second):
		h.t.Error("a scrape waits on the node lock while the node places a task")
	}
	return nil
}

func (h *scrapingHost) StopTask(string) error { return nil }

// TestScrapeDuringPlacement: a scrape does not wait on the node lock. The
// tick holds it while the host builds a placed task's monitors, and a host
// such as volleyd registers their metrics then, which takes the registry's
// lock; a scrape holds that lock while it reads the node's gauges. Taking
// the node lock there deadlocked a shard whose /metrics was read while it
// placed a task. The gauges still count what they did.
func TestScrapeDuringPlacement(t *testing.T) {
	reg, local := obs.NewRegistry(), transport.NewMemory()
	sinkNet(t, local, "m1")
	host := &scrapingHost{t: t, reg: reg}
	n, err := NewNode(NodeConfig{
		ID: "a", Addr: "a", Inter: transport.NewMemory(), Local: local, Host: host,
		BeaconEvery: 1, SuspectAfter: 3, DeadAfter: 6, SnapshotEvery: 2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(nodeSpec("t1", "m1"), nil); err != nil {
		t.Fatal(err)
	}
	step := 0
	tickNodes(&step, 1, n)
	for _, want := range []string{"volley_cluster_catalog_tasks 1", "volley_cluster_owned_tasks 0"} {
		if !strings.Contains(host.page, want+"\n") {
			t.Errorf("the scrape during placement lacks %q", want)
		}
	}
	for _, tc := range []struct {
		when  string
		edit  func()
		count string
	}{
		{"once placed", func() {}, "1"},
		{"once removed", func() {
			if err := n.Remove("t1"); err != nil {
				t.Fatal(err)
			}
		}, "0"},
	} {
		tc.edit()
		tickNodes(&step, 1, n)
		page := scrapeNode(n)
		for _, g := range []string{"volley_cluster_catalog_tasks", "volley_cluster_owned_tasks"} {
			if !strings.Contains(page, g+" "+tc.count+"\n") {
				t.Errorf("%s: scrape lacks %s %s", tc.when, g, tc.count)
			}
		}
	}
}
