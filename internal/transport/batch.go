package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"

	"volley/internal/obs"
)

// Per-peer report batching. Send already decouples callers from the
// wire through a per-peer queue; the writer on the other end of that
// queue is therefore the natural coalescing point: everything queued
// for one peer at the moment the writer wakes — yield reports,
// heartbeats, local-violation reports from the same tick — packs into a
// single batch frame and one syscall. The receive side unpacks the
// frame back into individual Messages before deduplication and
// delivery, so the monitor, coordinator and cluster layers never see a
// batch.

// peerWriter is the state of one peer's writer goroutine: the live
// connection, the reusable encode buffer and batch scratch (both grow
// to a high-water mark and then stop allocating — TestEncodeZeroAlloc
// gates the codec half of that), and the reconnect backoff.
type peerWriter struct {
	n *TCPNode
	p *tcpPeer

	conn net.Conn

	buf   []byte    // encoded frame
	batch []Message // messages of the frame currently being shipped

	timer   *time.Timer // batch-window timer, armed per batch
	rng     *rand.Rand
	backoff time.Duration

	everConnected bool
}

func newPeerWriter(n *TCPNode, p *tcpPeer) *peerWriter {
	w := &peerWriter{n: n, p: p, backoff: n.backoffMin}
	// Jitter source local to this goroutine; the exact seed is irrelevant,
	// it only decorrelates concurrent reconnect storms.
	w.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(p.addr))))
	if n.batchWindow > 0 {
		w.timer = time.NewTimer(time.Hour)
		if !w.timer.Stop() {
			<-w.timer.C
		}
	}
	return w
}

func (w *peerWriter) close() {
	w.disconnect()
	if w.timer != nil {
		w.timer.Stop()
	}
}

func (w *peerWriter) disconnect() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// windowWait sleeps out the batch window so stragglers can queue up
// behind the ones already drained. Returns false when the node or peer
// shut down mid-wait.
func (w *peerWriter) windowWait() bool {
	w.timer.Reset(w.n.batchWindow)
	select {
	case <-w.timer.C:
		return true
	case <-w.n.closed:
	case <-w.p.done:
	}
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
	return false
}

// process ships everything the writer drained, chunked into batch
// frames bounded by maxBatch messages and (estimated)
// maxBatchBytes, so payload-heavy messages cannot pile into one
// enormous frame. A message outside the wire vocabulary cannot be
// binary-encoded; it is dropped and counted here, at collection time,
// so one bad message cannot poison the frame its batch-mates ride in.
// Returns false when the node or peer shut down mid-delivery.
func (w *peerWriter) process(pending []Message) bool {
	n := w.n
	fresh := 0
	for i := range pending {
		if !kindValid(pending[i].Kind) {
			n.stats.dropped.Add(1)
			n.tracer.Record(obs.Event{Type: obs.EventDropped, Node: n.name, Peer: w.p.addr})
			continue
		}
		// Compact in place; no message is copied while every kind is valid.
		if fresh != i {
			pending[fresh] = pending[i]
		}
		fresh++
	}
	kept := pending[:fresh]
	for start := 0; start < len(kept); {
		// Encode as many frames as fit under maxBatchBytes into the
		// reusable buffer, then ship them all with one write — a deep
		// drain costs one syscall, not one per frame.
		w.buf = w.buf[:0]
		msgs, batched := 0, 0
		for start < len(kept) && len(w.buf) < maxBatchBytes {
			end, est := start, 0
			for end < len(kept) && end-start < n.maxBatch && est < maxBatchBytes {
				m := &kept[end]
				est += 64 + len(m.Task) + len(m.From) + len(m.Payload)
				end++
			}
			var err error
			if w.buf, err = AppendBatchFrame(w.buf, kept[start:end]); err != nil {
				// Unreachable: the filter above removed unencodable kinds.
				// Count rather than crash if the invariant ever breaks;
				// AppendBatchFrame truncated its partial frame, so the
				// buffer still holds only complete earlier frames.
				n.stats.dropped.Add(uint64(end - start))
			} else {
				msgs += end - start
				if end-start > 1 {
					batched++
				}
			}
			start = end
		}
		if !w.writeFrames(msgs, batched) {
			return false
		}
	}
	return true
}

// backoffSleep waits out the current reconnect backoff (jittered into
// [backoff/2, backoff)) and doubles it, bounded. False means the node
// or peer closed during the sleep.
func (w *peerWriter) backoffSleep() bool {
	n := w.n
	d := w.backoff/2 + time.Duration(w.rng.Int63n(int64(w.backoff/2)+1))
	if !n.sleepPeer(w.p, d) {
		return false
	}
	w.backoff *= 2
	if w.backoff > n.backoffMax {
		w.backoff = n.backoffMax
	}
	return true
}

// dial establishes the connection, announcing the binary codec with the
// 4-byte preamble. ok reports a usable connection; alive=false means
// the writer should exit.
func (w *peerWriter) dial() (ok, alive bool) {
	n := w.n
	c, err := net.DialTimeout("tcp", w.p.addr, n.dialTimeout)
	if err != nil {
		return false, w.backoffSleep()
	}
	c.SetWriteDeadline(time.Now().Add(n.sendTimeout))
	if _, err := c.Write(codecPreamble[:]); err != nil {
		c.Close()
		return false, w.backoffSleep()
	}
	n.stats.bytesSent.Add(uint64(len(codecPreamble)))
	w.conn = c
	if w.everConnected {
		n.stats.reconnects.Add(1)
		n.tracer.Record(obs.Event{Type: obs.EventReconnect, Node: n.name, Peer: w.p.addr})
	}
	w.everConnected = true
	return true, true
}

// writeFrames ships w.buf — one or more complete frames carrying msgs
// messages, batched of them multi-message — with one write per
// attempt. On failure everything is retried on a fresh connection; a
// partially received frame cannot be mis-framed (the receiver's length
// prefix no longer matches and the connection drops), and fully
// received retransmissions are suppressed per message by the
// receive-side dedup window — identical semantics to the unbatched
// path, just at frame granularity. Returns false when the node or peer
// shut down mid-backoff.
func (w *peerWriter) writeFrames(msgs, batched int) bool {
	if len(w.buf) == 0 {
		return true
	}
	n := w.n
	for attempt := 0; attempt < n.retries; attempt++ {
		if w.conn == nil {
			ok, alive := w.dial()
			if !alive {
				return false
			}
			if !ok {
				continue
			}
		}
		w.conn.SetWriteDeadline(time.Now().Add(n.sendTimeout))
		if _, err := w.conn.Write(w.buf); err != nil {
			w.disconnect()
			continue
		}
		n.stats.bytesSent.Add(uint64(len(w.buf)))
		if batched > 0 {
			n.stats.framesBatched.Add(uint64(batched))
		}
		w.backoff = n.backoffMin
		return true
	}
	n.stats.dropped.Add(uint64(msgs))
	n.tracer.Record(obs.Event{Type: obs.EventDropped, Node: n.name, Peer: w.p.addr})
	return true
}

// ---------------------------------------------------------------------
// Memory-transport batching.
//
// The simulation network mirrors the TCP writer's coalescing so the
// chaos harness can prove batching changes nothing semantically: with
// batching enabled, Sends accumulate per (from, to) link and Flush —
// called once per simulation tick — delivers each link's batch as one
// unit. Loss, reorder, duplication, partition and crash now act at
// batch granularity, exactly as they would on a TCP batch frame; the
// per-message fault filter still sees individual messages, since that
// is its documented contract.

// link identifies one sender→receiver edge, the unit of batching.
type link struct{ from, to string }

// memBatch is one pending or held batch on a link.
type memBatch struct {
	lk   link
	msgs []Message
}

// SetBatching enables (maxBatch >= 1) or disables (0) per-link
// coalescing. While enabled, Send only enqueues; delivery happens when
// a link reaches maxBatch messages or at the next Flush. Disabling
// flushes whatever is pending first.
func (m *Memory) SetBatching(maxBatch int) {
	m.mu.Lock()
	m.batchMax = maxBatch
	m.mu.Unlock()
	if maxBatch <= 0 {
		m.Flush()
	}
}

// Flush delivers every pending batch, in enqueue order, re-applying the
// fault switches at delivery time (a crash or partition that happened
// after enqueue still cuts the batch, mirroring in-flight frames).
// Handlers that send during delivery re-fill the pending set; Flush
// loops until it drains, so a violation report, the poll it triggers
// and the poll responses all complete within one flush — the batched
// analogue of the synchronous unbatched cascade.
func (m *Memory) Flush() {
	for {
		m.mu.Lock()
		pending := m.pendingBatches
		m.pendingBatches = nil
		m.mu.Unlock()
		if len(pending) == 0 {
			return
		}
		for _, b := range pending {
			m.deliverBatch(b)
		}
	}
}

// enqueueBatched appends msg to its link's pending batch, delivering
// the batch immediately if it reached maxBatch. Caller holds m.mu; the
// full-batch delivery happens after unlock.
func (m *Memory) enqueueBatched(lk link, msg Message) error {
	if _, ok := m.handlers[lk.to]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("transport: unknown address %q", lk.to)
	}
	m.stats.sent.Add(1)
	m.seq++
	msg.From = lk.from
	msg.Seq = m.seq
	msg.Payload = bytes.Clone(msg.Payload) // delivered after Send returns
	idx := -1
	for i := range m.pendingBatches {
		if m.pendingBatches[i].lk == lk {
			idx = i
			break
		}
	}
	if idx < 0 {
		m.pendingBatches = append(m.pendingBatches, &memBatch{lk: lk})
		idx = len(m.pendingBatches) - 1
	}
	b := m.pendingBatches[idx]
	b.msgs = append(b.msgs, msg)
	var full *memBatch
	if len(b.msgs) >= m.batchMax {
		full = b
		m.pendingBatches = append(m.pendingBatches[:idx], m.pendingBatches[idx+1:]...)
	}
	m.mu.Unlock()
	if full != nil {
		m.deliverBatch(full)
	}
	return nil
}

// deliverBatch applies the fault switches to one batch and delivers the
// survivors in order.
func (m *Memory) deliverBatch(b *memBatch) {
	m.mu.Lock()
	h, ok := m.handlers[b.lk.to]
	if !ok || m.unreachableLocked(b.lk.from, b.lk.to) {
		// Endpoint gone or link cut while the batch was in flight.
		m.stats.dropped.Add(uint64(len(b.msgs)))
		m.mu.Unlock()
		return
	}
	// The message-level filter keeps its per-message contract even at
	// batch granularity (it is the chaos harness's scalpel).
	if m.filter != nil {
		kept := b.msgs[:0]
		for _, msg := range b.msgs {
			if m.filter(b.lk.from, b.lk.to, msg) {
				m.stats.dropped.Add(1)
				continue
			}
			kept = append(kept, msg)
		}
		b.msgs = kept
		if len(b.msgs) == 0 {
			m.mu.Unlock()
			return
		}
	}
	if m.lossProb > 0 && m.rngLocked().Float64() < m.lossProb {
		// The whole frame is lost.
		m.stats.dropped.Add(uint64(len(b.msgs)))
		m.mu.Unlock()
		return
	}
	duplicated := m.dupProb > 0 && m.rngLocked().Float64() < m.dupProb
	if m.reorderProb > 0 && m.heldBatch == nil && m.rngLocked().Float64() < m.reorderProb {
		m.heldBatch = b
		m.stats.reordered.Add(1)
		m.mu.Unlock()
		return
	}
	held := m.heldBatch
	m.heldBatch = nil
	schedule := m.schedule
	delay := m.delay
	m.mu.Unlock()

	if len(b.msgs) > 1 {
		m.stats.framesBatched.Add(1)
	}
	times := 1
	if duplicated {
		times = 2
	}
	deliverAll := func(h Handler, msgs []Message) bool {
		for _, msg := range msgs {
			msg := msg
			d := func() {
				h(msg)
				m.stats.delivered.Add(1)
			}
			if schedule != nil {
				if schedule(delay, d) != nil {
					return false
				}
				continue
			}
			d()
		}
		return true
	}
	for i := 0; i < times; i++ {
		if !deliverAll(h, b.msgs) {
			return
		}
	}
	// A held batch flushes right after the next delivered one — the
	// pairwise frame swap. It already survived its fault rolls; only
	// reachability is re-checked, mirroring the unbatched held path.
	if held != nil {
		m.mu.Lock()
		hh, ok := m.handlers[held.lk.to]
		cut := !ok || m.unreachableLocked(held.lk.from, held.lk.to)
		if cut {
			m.stats.dropped.Add(uint64(len(held.msgs)))
		}
		m.mu.Unlock()
		if !cut {
			if len(held.msgs) > 1 {
				m.stats.framesBatched.Add(1)
			}
			deliverAll(hh, held.msgs)
		}
	}
}
