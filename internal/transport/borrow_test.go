package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The ownership rule over TCP: Send borrows msg.Payload, so a sender that
// builds every message in one buffer and scribbles over it the moment Send
// returns must still be received byte for byte. Run under -race, where a
// queue that kept the caller's slice is also a reported race with the writer.

// borrowedPayload is the payload of message i: a length and content that
// vary with i, so copies land at moving offsets of the queue's arena.
func borrowedPayload(dst []byte, i int) []byte {
	n := 1 + i*37%900
	for j := 0; j < n; j++ {
		dst = append(dst, byte(i+j))
	}
	return dst
}

// borrowSink is a receiving handler that checks each payload while it may —
// before it returns — against the one its message number implies.
type borrowSink struct {
	mu   sync.Mutex
	seen map[int]bool
	bad  []string
}

func (s *borrowSink) handle(m Message) {
	i := int(m.Value)
	ok := bytes.Equal(m.Payload, borrowedPayload(nil, i))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = make(map[int]bool)
	}
	s.seen[i] = true
	if !ok && len(s.bad) < 5 {
		s.bad = append(s.bad, fmt.Sprintf("message %d arrived with %d bytes %x…", i, len(m.Payload), m.Payload[:min(8, len(m.Payload))]))
	}
}

func (s *borrowSink) has(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[i]
}

// hasFrom reports whether message i or a later one has arrived.
func (s *borrowSink) hasFrom(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for got := range s.seen {
		if got >= i {
			return true
		}
	}
	return false
}

func (s *borrowSink) check(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.bad {
		t.Error(b)
	}
}

// sendBorrowed sends messages [from, to) out of one reused buffer, retrying
// a full queue, and overwrites the buffer after every Send.
func sendBorrowed(t *testing.T, n *TCPNode, peer string, buf []byte, from, to int) []byte {
	t.Helper()
	for i := from; i < to; i++ {
		buf = borrowedPayload(buf[:0], i)
		deadline := time.Now().Add(10 * time.Second)
		for n.Send(n.Addr(), peer, Message{Kind: KindSnapshot, Task: "t", Value: float64(i), Payload: buf}) != nil {
			if time.Now().After(deadline) {
				t.Fatalf("message %d: the queue to %s never drained", i, peer)
			}
			time.Sleep(time.Millisecond)
		}
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	return buf
}

func TestTCPSendBorrowsPayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []TCPOption
	}{
		{"plain drain", nil},
		// The writer drains, waits the window, and sweeps the stragglers in
		// beside the first sweep: both sweeps' bytes must outlive the wait.
		{"batch window", []TCPOption{WithBatchWindow(2 * time.Millisecond), WithMaxBatch(1024)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink borrowSink
			server, err := ListenTCP("127.0.0.1:0", sink.handle, fastOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			client, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts(tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			const n = 600
			var buf []byte
			for i := 0; i < n; i += 50 {
				buf = sendBorrowed(t, client, server.Addr(), buf, i, i+50)
				time.Sleep(time.Millisecond) // let a window's first sweep happen mid-stream
			}
			waitFor(t, 10*time.Second, func() bool { return sink.has(n - 1) }, "the last message")
			sink.check(t)
			if st := server.Stats(); st.Delivered != n {
				t.Errorf("delivered %d of %d", st.Delivered, n)
			}
		})
	}
}

// TestTCPRetransmissionBorrowsPayload: the peer restarts under a stream of
// sends, so some frames are written again on a fresh connection, long after
// their Sends returned. Whatever arrives, arrives intact.
func TestTCPRetransmissionBorrowsPayload(t *testing.T) {
	var sink borrowSink
	server, err := ListenTCP("127.0.0.1:0", sink.handle, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	addr := server.Addr()
	client, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	buf := sendBorrowed(t, client, addr, nil, 0, 100)
	waitFor(t, 10*time.Second, func() bool { return sink.has(99) }, "the first connection's messages")
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	// Listening again before the next send: a dial to a loopback port nobody
	// listens on can connect the client to itself.
	server2, err := ListenTCP(addr, sink.handle, fastOpts()...)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer server2.Close()
	// Sent into the dead connection: written, failed, retried after the redial.
	next := 100
	waitFor(t, 10*time.Second, func() bool {
		buf = sendBorrowed(t, client, addr, buf, next, next+10)
		next += 10
		return sink.hasFrom(100)
	}, "a message after the restart")
	sink.check(t)
	if client.Stats().Reconnects == 0 {
		t.Error("the client never reconnected; the test retransmitted nothing")
	}
}

// TestTCPDeregisterBorrowsPayload: Deregister discards a queue in mid-flight
// — the writer may be encoding from it at that moment — and a later Send to
// the address starts a fresh one. Nothing that arrives is damaged.
func TestTCPDeregisterBorrowsPayload(t *testing.T) {
	var sink borrowSink
	server, err := ListenTCP("127.0.0.1:0", sink.handle, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := ListenTCP("127.0.0.1:0", func(Message) {}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var buf []byte
	const rounds, each = 20, 40
	for r := 0; r < rounds; r++ {
		buf = sendBorrowed(t, client, server.Addr(), buf, r*each, (r+1)*each)
		if err := client.Deregister(server.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	last := rounds * each
	sendBorrowed(t, client, server.Addr(), buf, last, last+1)
	waitFor(t, 10*time.Second, func() bool { return sink.has(last) }, "the message sent after the last Deregister")
	sink.check(t)
}

// TestTCPQueueSweepsBorrowedPayloads pins what the batch window's second sweep
// must do, which over a socket only a lucky schedule shows: the stragglers'
// payloads are moved beside the first sweep's, because from the moment the
// sweep returns the producers write over the peer's arena again — while the
// writer is still encoding what it swept.
func TestTCPQueueSweepsBorrowedPayloads(t *testing.T) {
	p := newTCPPeer("peer")
	enqueue := func(i int) {
		t.Helper()
		buf := borrowedPayload(nil, i)
		if !p.enqueue(Message{Kind: KindSnapshot, Value: float64(i), Payload: buf}, 16) {
			t.Fatal("queue full")
		}
		clear(buf)
	}
	check := func(pending []Message, want ...int) {
		t.Helper()
		if len(pending) != len(want) {
			t.Fatalf("swept %d messages, want %d", len(pending), len(want))
		}
		for k, i := range want {
			if !bytes.Equal(pending[k].Payload, borrowedPayload(nil, i)) {
				t.Errorf("swept message %d carries %x…, not its payload", i, pending[k].Payload[:min(8, len(pending[k].Payload))])
			}
		}
	}
	var pending []Message
	var arena []byte
	for round := 0; round < 3; round++ {
		base := 100 * round
		enqueue(base)
		enqueue(base + 1)
		pending, arena = p.drainInto(pending[:0], arena) // the drain
		enqueue(base + 2)
		enqueue(base + 3)
		pending, arena = p.drainInto(pending, arena) // the window's second sweep
		enqueue(base + 4)                            // lands where base+2 was queued
		enqueue(base + 5)
		check(pending, base, base+1, base+2, base+3)
		pending, arena = p.drainInto(pending[:0], arena)
		check(pending, base+4, base+5)
	}
}
