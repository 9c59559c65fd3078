package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"volley/internal/alloctest"
	"volley/internal/transport"
)

// checkOrder fails unless cl.order is exactly the admitted tasks sorted by
// name and the coordinators Tick walks are theirs, in that order.
func checkOrder(t *testing.T, cl *Cluster, step int) {
	t.Helper()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	want := make([]string, 0, len(cl.tasks))
	for name := range cl.tasks {
		want = append(want, name)
	}
	sort.Strings(want)
	if len(cl.order) != len(want) {
		t.Fatalf("step %d: order has %d tasks, want %d", step, len(cl.order), len(want))
	}
	coords := cl.coordsLocked()
	for i, name := range want {
		if cl.order[i] != cl.tasks[name] {
			t.Fatalf("step %d: order[%d] = %q, want %q", step, i, cl.order[i].spec.Name, name)
		}
		if coords[i] != cl.tasks[name].c {
			t.Fatalf("step %d: coords[%d] is not task %q's current coordinator", step, i, name)
		}
	}
}

func TestClusterOrderStaysSortedUnderChurn(t *testing.T) {
	net := transport.NewMemory()
	cl, err := New(Config{Shards: []string{"s1", "s2"}, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	admitted := map[string]bool{}
	pick := func() string {
		names := make([]string, 0, len(admitted))
		for n := range admitted {
			names = append(names, n)
		}
		sort.Strings(names)
		return names[rng.Intn(len(names))]
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(admitted) == 0:
			// Names drawn from a small space so inserts land everywhere in
			// the order, not only at its end.
			name := fmt.Sprintf("t%03d", rng.Intn(400))
			if admitted[name] {
				continue
			}
			mon := name + "/m"
			sinkNet(t, net, mon)
			if _, err := cl.Admit(testSpec(name, mon)); err != nil {
				t.Fatal(err)
			}
			admitted[name] = true
		case op < 8:
			name := pick()
			if err := cl.Evict(name); err != nil {
				t.Fatal(err)
			}
			if err := net.Deregister(name + "/m"); err != nil {
				t.Fatal(err)
			}
			delete(admitted, name)
		default:
			if err := cl.Update(pick(), 50+100*rng.Float64(), 0.1*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		checkOrder(t, cl, step)
		if step%50 == 0 {
			cl.Tick(time.Duration(step) * time.Second)
		}
	}
	if len(admitted) < 20 {
		t.Fatalf("churn left %d tasks; the sequence no longer exercises the order", len(admitted))
	}
}

// admitBytes admits n single-monitor tasks and reports the bytes allocated
// per admission.
func admitBytes(t *testing.T, cl *Cluster, net *transport.Memory, from, n int) float64 {
	t.Helper()
	specs := make([]TaskSpec, n)
	for i := range specs {
		name := fmt.Sprintf("task-%06d", from+i)
		sinkNet(t, net, name+"/m")
		specs[i] = testSpec(name, name+"/m")
	}
	// One round: each admission happens once.
	bytes, _ := alloctest.Least(1, nil, func() {
		for _, spec := range specs {
			if _, err := cl.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
	})
	return float64(bytes) / float64(n)
}

// TestClusterAdmitCostDoesNotGrow pins what keeps set-up linear: an
// admission into a cluster of 4000 tasks allocates what one into a cluster
// of 250 does. Re-collecting the task names on every Admit cost 16 B per
// admitted task per admission.
func TestClusterAdmitCostDoesNotGrow(t *testing.T) {
	net := transport.NewMemory()
	cl, err := New(Config{Shards: []string{"s1", "s2"}, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	admitBytes(t, cl, net, 0, 250)
	small := admitBytes(t, cl, net, 250, 250)
	admitBytes(t, cl, net, 500, 3500)
	large := admitBytes(t, cl, net, 4000, 250)
	// Map and slice doubling land in one window or the other; a per-task
	// term would make the second window an order of magnitude dearer.
	t.Logf("Admit allocates %.0f B at 250 tasks, %.0f B at 4000", small, large)
	if large > 2*small {
		t.Errorf("Admit allocates %.0f B at 4000 tasks against %.0f B at 250; it must not grow with the cluster", large, small)
	}
}
