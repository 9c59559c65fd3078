package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"volley/internal/alerts"
	"volley/internal/alloctest"
	"volley/internal/coord"
	"volley/internal/obs"
	"volley/internal/transport"
)

// The ownership rule at the cluster layer: a handler only borrows
// msg.Payload, so the store copies the frames it keeps and decodes them
// under its lock, and Send only borrows it, so a node encodes every frame of
// a task into the one buffer. Run under -race.

// tcpTestFabric adapts a TCPNode to transport.Network the way volleyd's
// shard mode does: the node needs its handler at listen time, before the
// cluster node exists.
type tcpTestFabric struct {
	node    *transport.TCPNode
	handler atomic.Pointer[transport.Handler]
}

func newTCPTestFabric(t *testing.T) *tcpTestFabric {
	t.Helper()
	f := &tcpTestFabric{}
	node, err := transport.ListenTCP("127.0.0.1:0", func(msg transport.Message) {
		if h := f.handler.Load(); h != nil {
			(*h)(msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	f.node = node
	return f
}

func (f *tcpTestFabric) Register(_ string, h transport.Handler) error {
	f.handler.Store(&h)
	return nil
}

func (f *tcpTestFabric) Send(from, to string, msg transport.Message) error {
	return f.node.Send(from, to, msg)
}

func (f *tcpTestFabric) Deregister(addr string) error { return f.node.Deregister(addr) }

// uniformState is a state for task whose every assignment equals its epoch,
// so a reader can tell a frame read whole from one read while it changed.
func uniformState(task string, epoch uint64, monitors int) coord.AllowanceState {
	st := coord.AllowanceState{Task: task, Epoch: epoch, Err: 1, Assignments: make(map[string]float64, monitors)}
	for i := 0; i < monitors; i++ {
		st.Assignments[fmt.Sprintf("%s/m%03d", task, i)] = float64(epoch)
	}
	return st
}

func checkUniform(task string, epoch uint64, monitors int, got map[string]float64) error {
	if len(got) != monitors {
		return fmt.Errorf("task %s epoch %d: %d assignments, want %d", task, epoch, len(got), monitors)
	}
	for m, v := range got {
		if v != float64(epoch) {
			return fmt.Errorf("task %s epoch %d: assignment %s = %v", task, epoch, m, v)
		}
	}
	return nil
}

// TestSnapshotStoreBorrowsFrame: over TCP a payload is a view into the
// connection's read buffer, which the next frame is read over. The frame
// held for task A must be intact after larger frames for task B came in on
// the same connection.
func TestSnapshotStoreBorrowsFrame(t *testing.T) {
	store := NewSnapshotStore("n1", nil, nil)
	recv, err := transport.ListenTCP("127.0.0.1:0", func(msg transport.Message) {
		if _, err := store.Put(msg.Task, msg.From, 0, msg.Payload); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := transport.ListenTCP("127.0.0.1:0", func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	var frame []byte
	ship := func(st coord.AllowanceState) {
		t.Helper()
		if frame, err = AppendSnapshot(frame[:0], &st); err != nil {
			t.Fatal(err)
		}
		msg := transport.Message{Kind: transport.KindSnapshot, Task: st.Task, Epoch: st.Epoch, Payload: frame}
		for send.Send(send.Addr(), recv.Addr(), msg) != nil {
			time.Sleep(time.Millisecond)
		}
	}
	ship(uniformState("A", 7, 3))
	const last = 40
	for epoch := uint64(1); epoch <= last; epoch++ {
		ship(uniformState("B", epoch, 5*int(epoch)))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if e, ok := store.Get("B"); ok && e.Epoch == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("task B's last frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	for task, want := range map[string]struct {
		epoch    uint64
		monitors int
	}{"A": {7, 3}, "B": {last, 5 * last}} {
		e, st, ok := store.State(task)
		if !ok || e.Epoch != want.epoch {
			t.Fatalf("task %s: held %+v (%v), want epoch %d", task, e, ok, want.epoch)
		}
		if err := checkUniform(task, want.epoch, want.monitors, st.Assignments); err != nil {
			t.Error(err)
		}
	}
}

// TestNodeStatusWhileStoreBorrowsFrames: /cluster's Status decodes held
// frames while a peer's snapshots for the same task keep arriving and are
// copied over them. Every snapshot it reports was read whole.
func TestNodeStatusWhileStoreBorrowsFrames(t *testing.T) {
	nodes, inter := testNodes(t, []string{"a", "b"}, nil)
	sinkNet(t, inter, "peer")
	const monitors, puts = 24, 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var frame []byte
		for epoch := uint64(1); epoch <= puts; epoch++ {
			st := uniformState("t1", epoch, monitors)
			var err error
			if frame, err = AppendSnapshot(frame[:0], &st); err != nil {
				t.Error(err)
				return
			}
			if err := inter.Send("peer", "a", transport.Message{
				Kind: transport.KindSnapshot, Task: "t1", Epoch: epoch, Payload: frame,
			}); err != nil {
				t.Error(err)
				return
			}
			clear(frame) // Send only borrowed it
		}
	}()
	var last uint64
	for last < puts {
		for _, s := range nodes["a"].Status().Snapshots {
			if s.Epoch < last {
				t.Fatalf("held epoch went back from %d to %d", last, s.Epoch)
			}
			last = s.Epoch
			if err := checkUniform(s.Task, s.Epoch, monitors, s.Assignments); err != nil {
				t.Fatal(err)
			}
		}
		runtime.Gosched()
	}
	wg.Wait()
}

// replicatingPair is two nodes, a owning every task and shipping a snapshot
// of each to b on every tick (b acks, so nothing stays in flight), with an
// acked alert open on the first task so that it rides its frames.
func replicatingPair(t *testing.T, inter [2]transport.Network, addrs [2]string, tasks int) (a, b *Node) {
	t.Helper()
	var nodes [2]*Node
	ids := [2]string{"a", "b"}
	for i, id := range ids {
		local := transport.NewMemory()
		sinkNet(t, local, gossipMonitors...)
		reg := obs.NewRegistry()
		n, err := NewNode(NodeConfig{
			ID: id, Addr: addrs[i], Peers: []Member{{ID: ids[1-i], Addr: addrs[1-i]}},
			Inter: inter[i], Local: local, Metrics: reg,
			Alerts:      alerts.New(alerts.Config{Node: id, Metrics: reg}),
			BeaconEvery: 1, SuspectAfter: 1 << 20, DeadAfter: 1 << 21,
			SnapshotEvery: 1, RetryAfter: 1 << 20, Replicas: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	a, b = nodes[0], nodes[1]
	// Admit only names the ring places on a, so that every frame goes a → b.
	ring := NewRing(16)
	ring.Add("a")
	ring.Add("b")
	var first string
	for i, admitted := 0, 0; admitted < tasks; i++ {
		name := fmt.Sprintf("task-%03d", i)
		if owner, _ := ring.Place(name); owner != "a" {
			continue
		}
		if err := a.Admit(nodeSpec(name, gossipMonitors...), nil); err != nil {
			t.Fatal(err)
		}
		if admitted++; first == "" {
			first = name
		}
	}
	a.Tick(time.Second)
	if got := len(a.Owned()); got != tasks {
		t.Fatalf("a owns %d tasks, want %d", got, tasks)
	}
	reg := a.cfg.Alerts
	id, _ := reg.Raise(first, time.Second, 170)
	reg.ObserveLocal(first, "m1", time.Second, 90)
	reg.ObserveLocal(first, "m2", time.Second, 80)
	if err := reg.Ack(id, time.Second, "operator"); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func shipped(n *Node) uint64 {
	return n.cfg.Metrics.Counter("volley_cluster_snapshots_shipped_total", "").Value()
}

// TestReplicationRoundZeroAlloc: once warm, a tick on which every owned task
// ships a snapshot — one of them carrying a live alert — allocates nothing,
// on the sending node or, the Memory fabric delivering inside Send, on the
// one that stores the frames and acks them.
func TestReplicationRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the encoder's key scratch comes from a sync.Pool, which the race detector empties at random")
	}
	const tasks = 8
	inter := transport.NewMemory()
	a, b := replicatingPair(t, [2]transport.Network{inter, inter}, [2]string{"a", "b"}, tasks)
	step := 1
	tickNodes(&step, 20, a, b)
	before := shipped(a)
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { tickNodes(&step, 1, a, b) })
	if got := shipped(a) - before; got != (runs+1)*tasks {
		t.Fatalf("%d snapshots shipped in %d ticks of %d tasks, want one per task and tick", got, runs+1, tasks)
	}
	if allocs != 0 {
		t.Errorf("a replication round of %d tasks allocates %v times, want 0", tasks, allocs)
	}
	if e, st, ok := b.Store().State(a.Owned()[0]); !ok || len(st.Alerts) != 1 || st.Alerts[0].AckedBy != "operator" || len(st.Alerts[0].Monitors) != 2 {
		t.Errorf("b holds %+v %+v (%v) for the first task, want a's acked alert with two monitors", e, st, ok)
	}
}

// TestReplicationOverTCPAllocs is the same pair over loopback TCP, where the
// frames cross the sender's queue, the wire codec and the receiver's read
// buffer on other goroutines: counted over the whole process, a snapshot
// shipped, stored and acked costs (nearly) no allocation.
func TestReplicationOverTCPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the encoder's key scratch comes from a sync.Pool, which the race detector empties at random")
	}
	const tasks = 8
	fa, fb := newTCPTestFabric(t), newTCPTestFabric(t)
	a, b := replicatingPair(t, [2]transport.Network{fa, fb}, [2]string{fa.node.Addr(), fb.node.Addr()}, tasks)
	step := 1
	// A frame is due again once its ack is back, a round trip later.
	round := func() {
		tickNodes(&step, 1, a, b)
		time.Sleep(200 * time.Microsecond)
	}
	for i := 0; i < 200; i++ {
		round()
	}
	// One round: it already spans 2000 snapshots, and what a round trip
	// over loopback costs the runtime is what the bound has room for.
	var n uint64
	bytes, mallocs := alloctest.Least(1, nil, func() {
		start := shipped(a)
		for shipped(a)-start < 2000 {
			round()
		}
		n = shipped(a) - start
	})
	perSnapshot := float64(mallocs) / float64(n)
	t.Logf("%d snapshots, %d allocations, %d bytes", n, mallocs, bytes)
	if perSnapshot > 0.05 {
		t.Errorf("%.3f allocations per snapshot over TCP, want at most 0.05", perSnapshot)
	}
	if b.Store().Len() != tasks {
		t.Errorf("b holds %d snapshots, want %d", b.Store().Len(), tasks)
	}
}
