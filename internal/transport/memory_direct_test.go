package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestMemorySendDirectZeroAlloc guards the in-process daemons' steady state:
// with no scheduler, no duplicate and no held message, Send calls the handler
// directly and allocates nothing.
func TestMemorySendDirectZeroAlloc(t *testing.T) {
	m := NewMemory()
	var got float64
	if err := m.Register("coord", func(msg Message) { got += msg.Value }); err != nil {
		t.Fatal(err)
	}
	msg := Message{Kind: KindHeartbeat, Task: "t", Value: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := m.Send("mon", "coord", msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Memory.Send allocates %.1f times per direct delivery, want 0", allocs)
	}
	if st := m.Stats(); st.Sent != st.Delivered || got != float64(st.Delivered) {
		t.Errorf("sent %d, delivered %d, handler saw %v", st.Sent, st.Delivered, got)
	}
}

// sendReference is Memory.Send as it was before the direct path: every
// delivery, deferred or not, goes through a closure and a list. It is the
// oracle TestMemorySendMatchesReference holds Send to.
func sendReference(m *Memory, from, to string, msg Message) error {
	m.mu.Lock()
	h, ok := m.handlers[to]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("transport: unknown address %q", to)
	}
	m.stats.sent.Add(1)
	m.seq++
	msg.From = from
	msg.Seq = m.seq
	if m.unreachableLocked(from, to) {
		m.stats.dropped.Add(1)
		m.mu.Unlock()
		return nil
	}
	if m.filter != nil && m.filter(from, to, msg) {
		m.stats.dropped.Add(1)
		m.mu.Unlock()
		return nil
	}
	if m.lossProb > 0 && m.rngLocked().Float64() < m.lossProb {
		m.stats.dropped.Add(1)
		m.mu.Unlock()
		return nil
	}
	duplicated := m.dupProb > 0 && m.rngLocked().Float64() < m.dupProb
	if m.reorderProb > 0 && len(m.held) == 0 && m.rngLocked().Float64() < m.reorderProb {
		m.held = append(m.held, heldDelivery{h: h, to: to, msg: msg})
		m.stats.reordered.Add(1)
		m.mu.Unlock()
		return nil
	}
	held := m.held
	m.held = nil
	schedule := m.schedule
	delay := m.delay
	m.mu.Unlock()

	deliver := func(h Handler, msg Message) func() {
		return func() {
			h(msg)
			m.stats.delivered.Add(1)
		}
	}
	var deliveries []func()
	times := 1
	if duplicated {
		times = 2
	}
	for i := 0; i < times; i++ {
		deliveries = append(deliveries, deliver(h, msg))
	}
	for _, hd := range held {
		m.mu.Lock()
		cut := m.unreachableLocked(hd.msg.From, hd.to)
		if cut {
			m.stats.dropped.Add(1)
		}
		m.mu.Unlock()
		if !cut {
			deliveries = append(deliveries, deliver(hd.h, hd.msg))
		}
	}
	for _, d := range deliveries {
		if schedule != nil {
			if err := schedule(delay, d); err != nil {
				return err
			}
			continue
		}
		d()
	}
	return nil
}

// memoryRun drives one Memory through a fixed script of sends and mid-run
// fault flips and records every delivery in order.
type memoryRun struct {
	m       *Memory
	pending []func() // deliveries the scheduler holds until the next drain
	log     []string
	errs    []string
}

func newMemoryRun(t *testing.T, scheduled bool, opts ...MemoryOption) *memoryRun {
	t.Helper()
	r := &memoryRun{}
	if scheduled {
		opts = append(opts, WithScheduler(time.Millisecond, func(_ time.Duration, f func()) error {
			r.pending = append(r.pending, f)
			return nil
		}))
	}
	r.m = NewMemory(opts...)
	for _, addr := range []string{"a", "b", "c"} {
		addr := addr
		if err := r.m.Register(addr, func(msg Message) {
			r.log = append(r.log, fmt.Sprintf("%s<-%s seq=%d v=%v p=%s", addr, msg.From, msg.Seq, msg.Value, msg.Payload))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// play runs the script. Every message carries a payload that names it; with
// reuse the sender builds them all in one buffer and scribbles over it as
// soon as Send returns, which the ownership rule lets it do — a delivery
// that Send put off must still carry the bytes that were sent.
func (r *memoryRun) play(send func(m *Memory, from, to string, msg Message) error, reuse bool) {
	addrs := []string{"a", "b", "c", "nobody"}
	script := rand.New(rand.NewSource(99))
	var payload []byte
	for i := 0; i < 600; i++ {
		switch i {
		case 150:
			// A message held across a crash must be cut at flush time.
			r.m.Crash("b")
		case 200:
			r.m.Restart("b")
		case 300:
			r.m.Partition([]string{"a"}, []string{"c"})
		case 380:
			r.m.Heal()
		case 450:
			r.m.SetFilter(func(_, to string, msg Message) bool { return to == "c" && int(msg.Value)%3 == 0 })
		case 520:
			r.m.SetFilter(nil)
		}
		from, to := addrs[script.Intn(3)], addrs[script.Intn(4)]
		payload = fmt.Appendf(payload[:0], "payload-%d", i)
		if err := send(r.m, from, to, Message{Kind: KindHeartbeat, Value: float64(i), Payload: payload}); err != nil {
			r.errs = append(r.errs, fmt.Sprintf("%d: %v", i, err))
		}
		if reuse {
			for j := range payload {
				payload[j] = '#'
			}
		} else {
			payload = nil // the reference keeps the slice it was given
		}
		if i%7 == 6 {
			r.m.Flush() // a no-op unless the run batches
			pending := r.pending
			r.pending = nil
			for _, f := range pending {
				f()
			}
		}
	}
}

// TestMemorySendMatchesReference holds Send, under every fault switch and
// with and without a scheduler, to the delivery order, held-message flush,
// errors and Stats counters of the closure-per-delivery implementation it
// replaced — and to its payloads, although Send's caller reuses the buffer
// it sends from and the reference's does not. The reference does not batch;
// the batching run is held to the payloads alone.
func TestMemorySendMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		scheduled bool
		opts      func() []MemoryOption
	}{
		{"plain", false, func() []MemoryOption { return nil }},
		{"loss", false, func() []MemoryOption { return []MemoryOption{WithLoss(0.2, 5)} }},
		{"dup", false, func() []MemoryOption { return []MemoryOption{WithDuplication(0.2, 5)} }},
		{"reorder", false, func() []MemoryOption { return []MemoryOption{WithReorder(0.3, 5)} }},
		{"loss+dup+reorder", false, func() []MemoryOption {
			return []MemoryOption{WithLoss(0.1, 5), WithDuplication(0.2, 5), WithReorder(0.3, 5)}
		}},
		{"schedule", true, func() []MemoryOption { return nil }},
		{"schedule+loss+dup+reorder", true, func() []MemoryOption {
			return []MemoryOption{WithLoss(0.1, 5), WithDuplication(0.2, 5), WithReorder(0.3, 5)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := newMemoryRun(t, tc.scheduled, tc.opts()...)
			got.play((*Memory).Send, true)
			want := newMemoryRun(t, tc.scheduled, tc.opts()...)
			want.play(sendReference, false)

			if len(want.log) < 200 {
				t.Fatalf("reference delivered only %d messages; the script no longer exercises the network", len(want.log))
			}
			if !reflect.DeepEqual(got.log, want.log) {
				for i := range want.log {
					g := "<none>"
					if i < len(got.log) {
						g = got.log[i]
					}
					if g != want.log[i] {
						t.Fatalf("delivery %d differs: got %q, want %q (%d vs %d deliveries)",
							i, g, want.log[i], len(got.log), len(want.log))
					}
				}
				t.Fatalf("got %d deliveries, want %d", len(got.log), len(want.log))
			}
			if !reflect.DeepEqual(got.errs, want.errs) {
				t.Errorf("send errors differ:\n got %v\nwant %v", got.errs, want.errs)
			}
			if g, w := got.m.Stats(), want.m.Stats(); g != w {
				t.Errorf("Stats differ:\n got %+v\nwant %+v", g, w)
			}
			if g, w := len(got.m.held), len(want.m.held); g != w {
				t.Errorf("%d messages left held, want %d", g, w)
			}
		})
	}
}

// TestMemoryBatchingBorrowsPayload: a batched Memory delivers at Flush, long
// after Send returned, and still the bytes that were sent — with the held
// reorder batch and a scheduler in the way too.
func TestMemoryBatchingBorrowsPayload(t *testing.T) {
	for _, scheduled := range []bool{false, true} {
		r := newMemoryRun(t, scheduled, WithReorder(0.3, 5), WithDuplication(0.2, 5))
		r.m.SetBatching(8)
		r.play((*Memory).Send, true)
		if len(r.log) < 200 {
			t.Fatalf("scheduled=%v: only %d deliveries; the script no longer exercises batching", scheduled, len(r.log))
		}
		for _, line := range r.log {
			var to, from string
			var seq uint64
			var v int
			var p string
			if _, err := fmt.Sscanf(line, "%1s<-%1s seq=%d v=%d p=%s", &to, &from, &seq, &v, &p); err != nil || p != fmt.Sprintf("payload-%d", v) {
				t.Fatalf("scheduled=%v: delivery %q does not carry the payload it was sent with (%v)", scheduled, line, err)
			}
		}
	}
}
