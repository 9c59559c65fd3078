package transport

import (
	"net"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps TCP fault-handling timings test-sized.
func fastOpts(extra ...TCPOption) []TCPOption {
	opts := []TCPOption{
		WithDialTimeout(500 * time.Millisecond),
		WithSendTimeout(500 * time.Millisecond),
		WithReconnectBackoff(time.Millisecond, 20*time.Millisecond),
	}
	return append(opts, extra...)
}

// TestTCPSendNeverBlocksOnUnreachablePeer is the transport half of the
// acceptance criterion: enqueueing to a dead peer must return immediately,
// bounded by nothing but the queue check.
func TestTCPSendNeverBlocksOnUnreachablePeer(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts(WithQueueDepth(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Grab a port that refuses connections: listen, note the address, close.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	start := time.Now()
	for i := 0; i < 200; i++ {
		_ = n.Send(n.Addr(), dead, Message{Kind: KindHeartbeat, Seq: uint64(i)})
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("200 sends to unreachable peer took %v, want well under 1s", elapsed)
	}
	// The writer sheds the backlog; most of the burst hits the full queue.
	if st := n.Stats(); st.QueueFull == 0 {
		t.Errorf("expected queue-full drops, stats = %+v", st)
	}
}

// TestTCPReconnectAfterPeerRestart kills a peer, restarts it on the same
// address and verifies the cached connection is replaced via backoff
// redial.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	recv := make(chan Message, 64)
	server, err := ListenTCP("127.0.0.1:0", func(m Message) { recv <- m }, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	addr := server.Addr()

	client, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Send(client.Addr(), addr, Message{Kind: KindPollResponse, Value: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("first message never arrived")
	}

	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	server2, err := ListenTCP(addr, func(m Message) { recv <- m }, fastOpts()...)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer server2.Close()

	// The client's cached connection is dead; keep sending until the
	// writer's redial lands a message on the restarted peer.
	deadline := time.After(10 * time.Second)
	for i := 0; ; i++ {
		_ = client.Send(client.Addr(), addr, Message{Kind: KindPollResponse, Value: 2})
		select {
		case m := <-recv:
			if m.Value != 2 {
				t.Fatalf("unexpected message %+v", m)
			}
			return
		case <-deadline:
			t.Fatalf("no delivery after peer restart, client stats %+v", client.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// writeRawFrames plays a dialer by hand: the preamble, then one frame per
// message, with whatever From and Seq the test chose.
func writeRawFrames(t *testing.T, conn net.Conn, msgs ...Message) {
	t.Helper()
	buf := append([]byte(nil), codecPreamble[:]...)
	for i := range msgs {
		var err error
		if buf, err = AppendFrame(buf, &msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestTCPReceiveDedup feeds the node two copies of the same (From, Seq)
// message over a raw connection — what a reconnect retransmission looks
// like — and verifies only one reaches the handler.
func TestTCPReceiveDedup(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	node, err := ListenTCP("127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	send := func(msgs ...Message) {
		t.Helper()
		base := node.Stats()
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		writeRawFrames(t, conn, msgs...)
		// Wait for the node to drain this connection.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			st := node.Stats()
			if st.Delivered+st.Duplicates-base.Delivered-base.Duplicates >= uint64(len(msgs)) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("messages not processed, stats %+v", node.Stats())
	}

	// Same Seq on one connection, then a "retransmission" on a fresh one:
	// dedup state must span connections.
	hb := func(from string, seq uint64, v float64) Message {
		return Message{Kind: KindHeartbeat, From: from, Seq: seq, Value: v}
	}
	send(hb("peer", 7, 1), hb("peer", 7, 2))
	send(hb("peer", 7, 3))
	send(hb("peer", 8, 4))
	// A different sender may reuse the same Seq freely.
	send(hb("other", 7, 5))

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("delivered %d messages, want 3: %+v", len(got), got)
	}
	st := node.Stats()
	if st.Duplicates != 2 || st.Delivered != 3 {
		t.Errorf("stats = %+v, want Duplicates 2 Delivered 3", st)
	}
}

// TestTCPSeqZeroBypassesDedup: messages without a sequence number are never
// deduplicated (foreign senders that do not stamp).
func TestTCPSeqZeroBypassesDedup(t *testing.T) {
	var mu sync.Mutex
	count := 0
	node, err := ListenTCP("127.0.0.1:0", func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hb := Message{From: "raw", Kind: KindHeartbeat}
	writeRawFrames(t, conn, hb, hb, hb)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == 3 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("delivered %d, want 3", count)
}

func TestSeqWindowEviction(t *testing.T) {
	w := newSeqWindow(2)
	if w.observe(1) || w.observe(2) {
		t.Fatal("fresh seqs reported duplicate")
	}
	if !w.observe(1) {
		t.Fatal("in-window duplicate not caught")
	}
	// 3 evicts 1; 1 becomes deliverable again (outside the window).
	if w.observe(3) {
		t.Fatal("fresh seq reported duplicate")
	}
	if w.observe(1) {
		t.Fatal("evicted seq still reported duplicate")
	}
}

func TestListenTCPRejectsBadOptions(t *testing.T) {
	cases := []TCPOption{
		WithDialTimeout(0),
		WithSendTimeout(-time.Second),
		WithQueueDepth(0),
		WithSendRetries(0),
		WithReconnectBackoff(0, time.Second),
		WithReconnectBackoff(time.Second, time.Millisecond),
		WithDedupWindow(-1),
	}
	for i, opt := range cases {
		if _, err := ListenTCP("127.0.0.1:0", func(Message) {}, opt); err == nil {
			t.Errorf("case %d: invalid option accepted", i)
		}
	}
}

// TestTCPDeregisterStopsReconnectLoop verifies the Deregisterer side of the
// TCP node: deregistering a dead peer stops its writer goroutine (ending
// the reconnect loop), later sends to the same address start a fresh peer,
// and deregistering an unknown address is a visible error.
func TestTCPDeregisterStopsReconnectLoop(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// A port that refuses connections: the writer goroutine for it sits in
	// its reconnect backoff forever unless deregistered.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	if err := n.Deregister(dead); err == nil {
		t.Error("deregister of a never-dialed peer succeeded, want error")
	}

	_ = n.Send(n.Addr(), dead, Message{Kind: KindHeartbeat, Seq: 1})
	if err := n.Deregister(dead); err != nil {
		t.Fatalf("deregister known peer: %v", err)
	}
	if err := n.Deregister(dead); err == nil {
		t.Error("second deregister succeeded, want error (peer already forgotten)")
	}

	// A restarted peer on the same address is reachable again: Send builds
	// a fresh writer rather than reusing torn-down state.
	recv := make(chan Message, 1)
	peer, err := ListenTCP(dead, func(m Message) { recv <- m }, fastOpts()...)
	if err != nil {
		// The OS may have reassigned the port; that invalidates only this
		// half of the test.
		t.Skipf("rebind %s: %v", dead, err)
	}
	defer peer.Close()
	deadline := time.After(5 * time.Second)
	for {
		_ = n.Send(n.Addr(), dead, Message{Kind: KindHeartbeat, Seq: 2})
		select {
		case m := <-recv:
			if m.Kind != KindHeartbeat {
				t.Fatalf("received %+v, want the heartbeat", m)
			}
			return
		case <-deadline:
			t.Fatal("peer never received a message after deregister + restart")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
