package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"volley/internal/obs"
)

// Defaults for the fault-tolerant TCP node. They target LAN-scale
// deployments: deadlines short enough that a blackholed peer is detected
// within a couple of seconds, backoff long enough that a crashed peer is
// not hammered with dials.
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultSendTimeout = 2 * time.Second
	DefaultQueueDepth  = 256
	DefaultBackoffMin  = 50 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
	DefaultSendRetries = 3
	DefaultDedupWindow = 1024
	// DefaultMaxBatch bounds how many queued messages one frame may
	// coalesce.
	DefaultMaxBatch      = 128
	defaultAcceptBackoff = time.Millisecond
	maxAcceptBackoff     = time.Second
	// maxBatchBytes stops batch collection once the estimated frame size
	// reaches this, so payload-heavy messages (snapshots) cannot pile
	// into one enormous frame.
	maxBatchBytes = 1 << 20
)

// TCPOption configures a TCPNode.
type TCPOption func(*TCPNode)

// WithDialTimeout bounds how long an outbound dial may take before the
// writer backs off and retries.
func WithDialTimeout(d time.Duration) TCPOption {
	return func(n *TCPNode) { n.dialTimeout = d }
}

// WithSendTimeout bounds each message write; a peer that stops reading
// cannot stall the writer beyond this deadline.
func WithSendTimeout(d time.Duration) TCPOption {
	return func(n *TCPNode) { n.sendTimeout = d }
}

// WithQueueDepth sets the per-peer outbound queue capacity. Send never
// blocks: when a peer's queue is full the message is dropped and counted.
func WithQueueDepth(depth int) TCPOption {
	return func(n *TCPNode) { n.queueDepth = depth }
}

// WithReconnectBackoff bounds the exponential backoff between reconnect
// attempts to a dead peer (jittered to avoid thundering herds).
func WithReconnectBackoff(min, max time.Duration) TCPOption {
	return func(n *TCPNode) { n.backoffMin, n.backoffMax = min, max }
}

// WithSendRetries sets how many delivery attempts a queued message gets
// before being dropped (each failed attempt reconnects first).
func WithSendRetries(retries int) TCPOption {
	return func(n *TCPNode) { n.retries = retries }
}

// WithDedupWindow sets the per-sender receive-side deduplication window (in
// messages). Reconnect retransmissions can deliver a message twice; the
// window suppresses the second copy. Zero disables deduplication.
func WithDedupWindow(window int) TCPOption {
	return func(n *TCPNode) { n.dedupWin = window }
}

// WithObserver attaches a decision-event tracer: the node records
// Reconnect, QueueFull and Dropped events under the given node name,
// unifying the ad-hoc Stats counters with the rest of the event taxonomy.
func WithObserver(tr *obs.Tracer, node string) TCPOption {
	return func(n *TCPNode) { n.tracer, n.name = tr, node }
}

// WithBatchWindow sets how long the per-peer writer waits after the
// first queued message for more to coalesce into the same frame. Zero
// (the default) batches opportunistically: whatever is already queued
// ships together with no added latency. A positive window trades that
// much latency for fuller frames — size it well under the sender's tick
// interval so coalescing never delays a report past its tick.
func WithBatchWindow(d time.Duration) TCPOption {
	return func(n *TCPNode) { n.batchWindow = d }
}

// WithMaxBatch caps how many messages one batch frame may carry.
// 1 disables coalescing entirely.
func WithMaxBatch(max int) TCPOption {
	return func(n *TCPNode) { n.maxBatch = max }
}

// TCPNode is one endpoint of a TCP network. Each node listens on its own
// address and dials peers on demand; messages travel on the binary wire
// codec (codec.go) with batching. Unlike Memory there is no central
// registry: the address *is* the location.
//
// Sending is asynchronous: Send enqueues onto a per-peer outbound queue and
// returns immediately, so a dead or blackholed peer can never block a
// caller (a Coordinator.Tick in particular). A writer goroutine per peer
// dials with a deadline, writes with a deadline, and reconnects with
// bounded-exponential jittered backoff. Outgoing messages are stamped with
// a node-local Seq (random base, monotonic) and receivers suppress
// duplicates per sender within a sliding window, giving effectively
// at-most-once delivery across retransmissions.
//
// TCPNode is safe for concurrent use.
type TCPNode struct {
	addr     string
	listener net.Listener
	handler  Handler

	dialTimeout time.Duration
	sendTimeout time.Duration
	queueDepth  int
	backoffMin  time.Duration
	backoffMax  time.Duration
	retries     int
	dedupWin    int
	batchWindow time.Duration
	maxBatch    int

	seq atomic.Uint64
	// seqBase is seq's starting value; every Send bumps seq exactly once,
	// so Sent = seq - seqBase and the hot path pays one atomic, not two.
	seqBase uint64
	stats   counters
	tracer  *obs.Tracer
	name    string

	// lastPeer caches the most recent Send destination: steady-state
	// traffic hammers one coordinator, and the pointer load skips the
	// peers-map lookup (and its string hash) on every hit.
	lastPeer atomic.Pointer[tcpPeer]

	mu      sync.Mutex
	peers   map[string]*tcpPeer
	inbound map[net.Conn]struct{}
	dedup   map[string]*seqWindow

	wg         sync.WaitGroup
	closed     chan struct{}
	closedFlag atomic.Bool // mirrors closed for Send's lock-free fast path
	closeOnce  sync.Once
}

// tcpPeer is one peer's outbound queue: a mutex-guarded slice the
// writer drains wholesale. A channel here would cost two synchronized
// hops per message; the swap-drain buffer costs one short lock per
// Send and one per writer wakeup regardless of how many messages moved,
// which is what lets the batched writer keep up with a burst of
// producers (the transport benchmark's regime).
type tcpPeer struct {
	addr string

	mu  sync.Mutex
	buf []Message // pending, bounded by queueDepth
	// arena holds the payload bytes of the messages in buf, which point into
	// it: Send only borrows a payload, so the queue keeps its own copy.
	arena []byte
	// wake carries one token: set after any enqueue, consumed by the
	// writer before each drain, so no append is ever left sleeping.
	wake chan struct{}
	// done is closed by Deregister; the peer's writer goroutine exits and
	// any messages still queued are discarded, ending the reconnect loop a
	// dead peer would otherwise keep alive forever.
	done chan struct{}
}

func newTCPPeer(addr string) *tcpPeer {
	return &tcpPeer{addr: addr, wake: make(chan struct{}, 1), done: make(chan struct{})}
}

// ownPayload copies msg's payload onto the end of arena and points msg at
// the copy. An arena that grows moves; the copies made before stay where
// they were, alive for as long as their messages are.
func ownPayload(arena []byte, msg *Message) []byte {
	if len(msg.Payload) == 0 {
		return arena
	}
	at := len(arena)
	arena = append(arena, msg.Payload...)
	msg.Payload = arena[at:len(arena):len(arena)]
	return arena
}

// enqueue appends msg, its payload copied, unless the queue is full. Only
// the empty→non-empty transition signals the writer: while the buffer is
// non-empty an unconsumed token already guarantees a drain, so the
// steady state skips the channel operation entirely.
func (p *tcpPeer) enqueue(msg Message, depth int) bool {
	p.mu.Lock()
	if len(p.buf) >= depth {
		p.mu.Unlock()
		return false
	}
	p.arena = ownPayload(p.arena, &msg)
	p.buf = append(p.buf, msg)
	notify := len(p.buf) == 1
	p.mu.Unlock()
	if notify {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// drainInto moves everything pending onto dst, whose payloads live in
// arena. An empty dst (the steady state) just swaps the backing arrays —
// the writer and the producers ping-pong a pair of high-water-capacity
// message slices and a pair of payload arenas, so draining costs one short
// lock regardless of how much moved, no copy, no allocation; the arena the
// writer hands back is the one whose messages it has finished shipping. A
// non-empty dst (the batch-window second sweep) appends, and moves the
// stragglers' payloads beside the first sweep's, because the producers
// write over the peer's arena from here on.
func (p *tcpPeer) drainInto(dst []Message, arena []byte) ([]Message, []byte) {
	p.mu.Lock()
	if len(dst) == 0 {
		dst, p.buf = p.buf, dst[:0]
		arena, p.arena = p.arena, arena[:0]
	} else {
		for _, msg := range p.buf {
			arena = ownPayload(arena, &msg)
			dst = append(dst, msg)
		}
		p.buf, p.arena = p.buf[:0], p.arena[:0]
	}
	p.mu.Unlock()
	return dst, arena
}

// seqWindow tracks the most recent sequence numbers seen from one
// sender — a bounded structure so a long-lived node cannot grow without
// limit. Senders stamp Seq monotonically, so a receiver observes an
// increasing run with small gaps (messages bound for other peers) plus
// retransmissions of recent values; an interval-anchored ring bitmap
// answers membership with two bit operations where a map-based window
// would hash on every message — the dominant receive-path cost once
// frames carry hundreds of messages.
type seqWindow struct {
	bits   []uint64 // ring bitmap over the last `size` sequence numbers
	high   uint64   // highest sequence number observed
	size   uint64   // window span, a power of two >= requested capacity
	primed bool     // high is valid (first observe happened)
}

func newSeqWindow(capacity int) *seqWindow {
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	return &seqWindow{bits: make([]uint64, (size+63)/64), size: size}
}

func (w *seqWindow) bit(seq uint64) (word int, mask uint64) {
	i := seq & (w.size - 1)
	return int(i >> 6), 1 << (i & 63)
}

// observe records seq and reports whether it was already in the window.
func (w *seqWindow) observe(seq uint64) (duplicate bool) {
	if !w.primed {
		w.primed = true
		w.high = seq
		word, mask := w.bit(seq)
		w.bits[word] |= mask
		return false
	}
	// Signed difference keeps the comparison correct across uint64
	// wraparound (the sequence base is random, so it can sit anywhere).
	if d := int64(seq - w.high); d > 0 {
		// Fresh territory: slide the window forward, clearing the bit
		// positions the advance reuses.
		if uint64(d) >= w.size {
			clear(w.bits)
		} else {
			for s := w.high + 1; s != seq; s++ {
				word, mask := w.bit(s)
				w.bits[word] &^= mask
			}
		}
		w.high = seq
		word, mask := w.bit(seq)
		w.bits[word] |= mask
		return false
	}
	if w.high-seq >= w.size {
		// Older than the window remembers: cannot tell, deliver — the
		// same answer the map-based window gave after eviction.
		return false
	}
	word, mask := w.bit(seq)
	if w.bits[word]&mask != 0 {
		return true
	}
	w.bits[word] |= mask
	return false
}

// ListenTCP starts a node listening on addr (e.g. "127.0.0.1:0"). The
// handler is invoked from receiving goroutines, one per inbound connection;
// it must be safe for concurrent use.
func ListenTCP(addr string, h Handler, opts ...TCPOption) (*TCPNode, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		addr:        l.Addr().String(),
		listener:    l,
		handler:     h,
		dialTimeout: DefaultDialTimeout,
		sendTimeout: DefaultSendTimeout,
		queueDepth:  DefaultQueueDepth,
		backoffMin:  DefaultBackoffMin,
		backoffMax:  DefaultBackoffMax,
		retries:     DefaultSendRetries,
		dedupWin:    DefaultDedupWindow,
		maxBatch:    DefaultMaxBatch,
		peers:       make(map[string]*tcpPeer),
		inbound:     make(map[net.Conn]struct{}),
		dedup:       make(map[string]*seqWindow),
		closed:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.dialTimeout <= 0 || n.sendTimeout <= 0 {
		l.Close()
		return nil, fmt.Errorf("transport: non-positive deadline")
	}
	if n.queueDepth < 1 || n.retries < 1 || n.dedupWin < 0 {
		l.Close()
		return nil, fmt.Errorf("transport: invalid queue depth, retries or dedup window")
	}
	if n.backoffMin <= 0 || n.backoffMax < n.backoffMin {
		l.Close()
		return nil, fmt.Errorf("transport: invalid reconnect backoff [%v, %v]", n.backoffMin, n.backoffMax)
	}
	if n.maxBatch < 1 || n.batchWindow < 0 {
		l.Close()
		return nil, fmt.Errorf("transport: invalid batch window %v or max batch %d", n.batchWindow, n.maxBatch)
	}
	// Random sequence base (like a TCP ISN): a restarted node picks a new
	// base, so its fresh messages do not collide with its previous
	// incarnation's entries in peers' dedup windows.
	n.seqBase = rand.Uint64()
	n.seq.Store(n.seqBase)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr reports the node's listen address (useful with port 0).
func (n *TCPNode) Addr() string { return n.addr }

// sleep waits for d or until the node closes; it reports whether the node
// is still open.
func (n *TCPNode) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.closed:
		return false
	case <-t.C:
		return true
	}
}

// sleepPeer is sleep for a peer's writer: it additionally wakes (and
// reports false) when the peer is deregistered, so a writer mid-backoff
// against a dead address exits promptly instead of on its next dial.
func (n *TCPNode) sleepPeer(p *tcpPeer, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.closed:
		return false
	case <-p.done:
		return false
	case <-t.C:
		return true
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	backoff := defaultAcceptBackoff
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			// Transient accept errors (EMFILE, ECONNABORTED): back off
			// briefly instead of busy-spinning, then keep serving.
			if !n.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = defaultAcceptBackoff
		n.mu.Lock()
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// countingReader counts bytes as they come off the wire, before any
// buffering, so BytesRecv reflects what the network actually carried.
type countingReader struct {
	r io.Reader
	c *atomic.Uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

// readLoop serves one inbound connection. A dialer leads with the 4-byte
// codec preamble; a connection that opens with anything else — another
// protocol, a codec version this build does not know, a port scan — is
// outside input: it is closed and counted, and a peer that was one sees a
// failed connection rather than silently mis-decoded frames.
func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	// 256 KiB keeps the read-syscall rate low when a peer ships deep
	// multi-frame bursts (a saturated batching writer's shape).
	br := bufio.NewReaderSize(&countingReader{r: conn, c: &n.stats.bytesRecv}, 256<<10)
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != codecPreamble {
		if !n.closedFlag.Load() {
			n.stats.rejected.Add(1)
		}
		return
	}
	n.binaryReadLoop(br)
}

// binaryReadLoop reads length-prefixed frames into a reusable buffer
// and decodes them with a per-connection decoder (whose string intern
// table makes steady-state decoding allocation-free). The handler has
// returned for every message of a frame before the next is read over it.
// Any decode error drops the connection — the frame boundary is
// unrecoverable — and the peer redials.
func (n *TCPNode) binaryReadLoop(r io.Reader) {
	dec := newFrameDecoder()
	var hdr [frameHeaderLen]byte
	var body []byte
	var msgs []Message // reused frame scratch; grows to the batch high-water mark
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		ln := binary.BigEndian.Uint32(hdr[:])
		if ln == 0 || ln > maxFrameBody {
			return
		}
		// Payloads handed to the handler point into body, so this is the
		// receive path's one buffer; it grows amortised, not to each frame's
		// exact length, or a run of growing frames reallocates at every step.
		body = slices.Grow(body[:0], int(ln))[:ln]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		var err error
		if msgs, err = dec.decodeBodyInto(body, msgs[:0]); err != nil {
			return
		}
		n.deliverAll(msgs)
	}
}

// deliverAll dedups one frame's messages under a single lock
// acquisition — per-message locking is the dominant receive cost once
// frames carry dozens of messages — then runs the handler for the
// survivors outside the lock.
func (n *TCPNode) deliverAll(msgs []Message) {
	if len(msgs) == 1 {
		n.deliver(msgs[0])
		return
	}
	n.mu.Lock()
	w := 0
	var dups uint64
	// One frame's messages nearly always share a sender, and the decoder
	// interns From, so caching the window per distinct sender turns the
	// per-message map lookup (a string hash) into a pointer compare.
	var lastFrom string
	var lastWin *seqWindow
	for i := range msgs {
		from, seq := msgs[i].From, msgs[i].Seq
		var dup bool
		if n.dedupWin == 0 || seq == 0 || from == "" {
			dup = false
		} else {
			if from != lastFrom || lastWin == nil {
				lastWin = n.windowLocked(from)
				lastFrom = from
			}
			dup = lastWin.observe(seq)
		}
		if dup {
			dups++
			continue
		}
		// Compact in place; in the common all-fresh frame w tracks i and
		// no message is copied at all.
		if w != i {
			msgs[w] = msgs[i]
		}
		w++
	}
	n.mu.Unlock()
	kept := msgs[:w]
	if dups > 0 {
		n.stats.duplicates.Add(dups)
	}
	n.stats.delivered.Add(uint64(len(kept)))
	for i := range kept {
		n.handler(kept[i])
	}
}

// deliver runs one received message through deduplication and, if
// fresh, the node handler.
func (n *TCPNode) deliver(msg Message) {
	n.mu.Lock()
	dup := n.duplicateLocked(msg.From, msg.Seq)
	n.mu.Unlock()
	if dup {
		n.stats.duplicates.Add(1)
		return
	}
	n.stats.delivered.Add(1)
	n.handler(msg)
}

// duplicateLocked reports whether seq was already delivered by this
// sender (a reconnect retransmission). Messages without a sequence
// number bypass deduplication. Caller holds n.mu.
func (n *TCPNode) duplicateLocked(from string, seq uint64) bool {
	if n.dedupWin == 0 || seq == 0 || from == "" {
		return false
	}
	return n.windowLocked(from).observe(seq)
}

// windowLocked returns (creating on first use) the dedup window for one
// sender. Caller holds n.mu.
func (n *TCPNode) windowLocked(from string) *seqWindow {
	w, ok := n.dedup[from]
	if !ok {
		w = newSeqWindow(n.dedupWin)
		n.dedup[from] = w
	}
	return w
}

// Send implements the Network sending contract for a TCP node. The from
// argument should be this node's Addr so peers can reply.
//
// Send is asynchronous and never blocks: it stamps the message, enqueues it
// (with a copy of its payload, which the caller keeps) on the destination
// peer's outbound queue and returns. A full queue (the peer is dead or too
// slow) drops the message and returns an error.
func (n *TCPNode) Send(from, to string, msg Message) error {
	if n.closedFlag.Load() {
		return fmt.Errorf("transport: node closed")
	}
	// The wire codec has a fixed vocabulary: an out-of-vocabulary
	// message can never be encoded. Reject it here,
	// loudly, rather than counting a silent drop at the writer — and
	// before stamping, so Sent counts only messages that can ship.
	if !kindValid(msg.Kind) {
		return fmt.Errorf("transport: send to %s: kind %d not in the wire vocabulary", to, int(msg.Kind))
	}
	msg.From = from
	msg.Seq = n.seq.Add(1)

	p := n.lastPeer.Load()
	if p == nil || p.addr != to {
		n.mu.Lock()
		var ok bool
		p, ok = n.peers[to]
		if !ok {
			p = newTCPPeer(to)
			n.peers[to] = p
			n.wg.Add(1)
			go n.writeLoop(p)
		}
		n.mu.Unlock()
		n.lastPeer.Store(p)
	}

	if !p.enqueue(msg, n.queueDepth) {
		n.stats.dropped.Add(1)
		n.stats.queueFull.Add(1)
		n.tracer.Record(obs.Event{Type: obs.EventQueueFull, Node: n.name, Peer: to})
		return fmt.Errorf("transport: send to %s: outbound queue full", to)
	}
	return nil
}

// Deregister implements Deregisterer for the TCP node: it forgets an
// outbound peer, stopping its writer goroutine (including one mid-backoff
// against a dead address), discarding whatever is still queued for it, and
// dropping the receive-side dedup window kept for the address. Without
// this, a peer whose process was killed leaks a reconnect loop that
// redials the gone address forever. A later Send to the same address
// starts fresh, so a restarted peer is reachable again.
func (n *TCPNode) Deregister(addr string) error {
	n.mu.Lock()
	p, ok := n.peers[addr]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("transport: deregister unknown peer %q", addr)
	}
	delete(n.peers, addr)
	delete(n.dedup, addr)
	n.mu.Unlock()
	n.lastPeer.CompareAndSwap(p, nil)
	close(p.done)
	return nil
}

// writeLoop drains one peer's outbound queue: dial (with deadline) when
// disconnected, coalesce whatever is queued into batch frames, write them under a deadline, and on any failure reconnect
// with bounded-exponential jittered backoff. A frame gets a fixed
// number of attempts before its messages are dropped, so a long-dead
// peer sheds load instead of accumulating it. The batching writer
// itself lives in batch.go.
func (n *TCPNode) writeLoop(p *tcpPeer) {
	defer n.wg.Done()
	w := newPeerWriter(n, p)
	defer w.close()
	var pending []Message
	var arena []byte // the payloads of pending
	for {
		select {
		case <-n.closed:
			return
		case <-p.done:
			return
		case <-p.wake:
		}
		pending, arena = p.drainInto(pending[:0], arena)
		if len(pending) == 0 {
			continue
		}
		// A configured batch window trades latency for fuller frames:
		// when the first drain came up short of a full frame, wait the
		// window and sweep up the stragglers it bought.
		if n.batchWindow > 0 && n.maxBatch > 1 && len(pending) < n.maxBatch {
			if !w.windowWait() {
				return
			}
			pending, arena = p.drainInto(pending, arena)
		}
		if !w.process(pending) {
			return
		}
	}
}

var _ Deregisterer = (*TCPNode)(nil)

// Stats returns a consistent snapshot of the node's traffic counters,
// assembled from one atomic struct rather than field-by-field reads of
// mutex-guarded state.
func (n *TCPNode) Stats() Stats {
	s := n.stats.snapshot()
	s.Sent = n.seq.Load() - n.seqBase
	return s
}

// QueueDepths reports the number of messages currently queued per peer —
// the early-warning signal for a dead or slow peer, shaped for
// obs.Registry.GaugeVecFunc.
func (n *TCPNode) QueueDepths() map[string]float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]float64, len(n.peers))
	for addr, p := range n.peers {
		p.mu.Lock()
		out[addr] = float64(len(p.buf))
		p.mu.Unlock()
	}
	return out
}

// RegisterMetrics exposes the node's traffic counters on an obs
// registry as volley_transport_* families, so wire savings (bytes per
// message, frames batched) are observable at /metrics next to the
// coordinator and monitor state. Safe to call with a nil registry.
func (n *TCPNode) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	counter := func(name, help string, read func(Stats) uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(read(n.Stats())) })
	}
	counter("volley_transport_msgs_sent_total", "Messages accepted for sending.",
		func(s Stats) uint64 { return s.Sent })
	counter("volley_transport_msgs_delivered_total", "Messages received and delivered to the handler.",
		func(s Stats) uint64 { return s.Delivered })
	counter("volley_transport_msgs_dropped_total", "Messages dropped (queue full or delivery attempts exhausted).",
		func(s Stats) uint64 { return s.Dropped })
	counter("volley_transport_duplicates_total", "Received messages suppressed by sequence deduplication.",
		func(s Stats) uint64 { return s.Duplicates })
	counter("volley_transport_reconnects_total", "Outbound connections re-established after a failure.",
		func(s Stats) uint64 { return s.Reconnects })
	counter("volley_transport_queue_full_total", "Sends dropped because a peer queue was full.",
		func(s Stats) uint64 { return s.QueueFull })
	counter("volley_transport_bytes_sent_total", "Bytes written to the wire, framing included.",
		func(s Stats) uint64 { return s.BytesSent })
	counter("volley_transport_bytes_recv_total", "Bytes read off the wire.",
		func(s Stats) uint64 { return s.BytesRecv })
	counter("volley_transport_frames_batched_total", "Multi-message frames shipped by per-peer coalescing.",
		func(s Stats) uint64 { return s.FramesBatched })
	reg.GaugeVecFunc("volley_transport_queue_depth",
		"Messages currently queued per peer.", "peer", n.QueueDepths)
}

// Close shuts the node down: stops accepting, closes all connections and
// waits for receive loops and per-peer writers to drain. Messages still
// queued for dead peers are discarded.
func (n *TCPNode) Close() error {
	var err error
	n.closeOnce.Do(func() {
		n.closedFlag.Store(true)
		close(n.closed)
		err = n.listener.Close()
		n.mu.Lock()
		for conn := range n.inbound {
			conn.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
	return err
}
