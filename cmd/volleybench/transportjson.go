package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"volley/internal/transport"
)

// countingSink is an io.Writer that only counts.
type countingSink struct{ n uint64 }

func (c *countingSink) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	return len(p), nil
}

// transportBenchMsgs is how many yield-report-sized messages each
// end-to-end mode pushes through a real TCP connection.
const transportBenchMsgs = 200000

// transportEncodeEntry is one codec's per-message encode profile,
// measured with testing.Benchmark over a representative yield report.
type transportEncodeEntry struct {
	Codec       string  `json:"codec"`
	NsPerMsg    float64 `json:"ns_per_msg"`
	BytesPerMsg int     `json:"bytes_per_msg"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// transportTCPEntry is one end-to-end mode: messages pushed through a
// sender node, over loopback TCP, to a receiver node's handler.
type transportTCPEntry struct {
	Mode          string  `json:"mode"`
	Messages      int     `json:"messages"`
	Delivered     uint64  `json:"delivered"`
	MsgsPerSec    float64 `json:"msgs_per_sec"`
	WireBytes     uint64  `json:"wire_bytes"`
	BytesPerMsg   float64 `json:"bytes_per_msg"`
	FramesBatched uint64  `json:"frames_batched"`
}

// transportBenchReport is the schema of BENCH_transport.json. The
// headline number is EncodeAllocsPerMsg == 0; the stdlib-gob encode row is
// the codec-level baseline the binary codec was chosen against.
type transportBenchReport struct {
	GoMaxProcs         int                    `json:"gomaxprocs"`
	Encode             []transportEncodeEntry `json:"encode"`
	TCP                []transportTCPEntry    `json:"tcp"`
	EncodeAllocsPerMsg float64                `json:"encode_allocs_per_msg"`
	TotalWallClockNS   int64                  `json:"total_wall_clock_ns"`
}

// benchReportMsg is the message shape both codecs race on: a yield
// report, the steady-state coordinator-ingest traffic.
func benchReportMsg() transport.Message {
	return transport.Message{
		Kind: transport.KindYieldReport, Task: "cpu-util", From: "127.0.0.1:19999",
		Time: 90 * time.Second, Reduction: 0.21, Needed: 0.07, Interval: 2.5, Seq: 1 << 40,
	}
}

// runTransportTCP pushes transportBenchMsgs messages sender→receiver
// over loopback and reports the delivered throughput. Send never
// blocks, so a full queue is retried after a short yield — the
// benchmark measures the pipeline, not an error path.
func runTransportTCP(mode string, opts ...transport.TCPOption) (transportTCPEntry, error) {
	e := transportTCPEntry{Mode: mode, Messages: transportBenchMsgs}
	var delivered atomic.Uint64
	done := make(chan struct{})
	recv, err := transport.ListenTCP("127.0.0.1:0", func(transport.Message) {
		if delivered.Add(1) == transportBenchMsgs {
			close(done)
		}
	}, opts...)
	if err != nil {
		return e, err
	}
	defer recv.Close()
	send, err := transport.ListenTCP("127.0.0.1:0", func(transport.Message) {}, opts...)
	if err != nil {
		return e, err
	}
	defer send.Close()

	// One producer goroutine, the monitor loop's shape: reports are
	// generated serially, and a single producer also keeps the peer
	// queue uncontended — past that the lock handoffs, not the codec,
	// dominate. The per-peer writer remains the serialization point the
	// codecs differ on.
	msg := benchReportMsg()
	start := time.Now()
	for sent := 0; sent < transportBenchMsgs; {
		if err := send.Send(send.Addr(), recv.Addr(), msg); err != nil {
			// Outbound queue full: the writer is already saturated, which
			// is exactly the regime being measured. Yield and retry.
			time.Sleep(20 * time.Microsecond)
			continue
		}
		sent++
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return e, fmt.Errorf("transport bench %s: %d of %d delivered after 2m (stats %+v)",
			mode, delivered.Load(), transportBenchMsgs, send.Stats())
	}
	elapsed := time.Since(start)

	st := send.Stats()
	e.Delivered = delivered.Load()
	e.MsgsPerSec = float64(e.Delivered) / elapsed.Seconds()
	e.WireBytes = st.BytesSent
	e.BytesPerMsg = float64(st.BytesSent) / float64(e.Delivered)
	e.FramesBatched = st.FramesBatched
	return e, nil
}

// writeTransportBenchJSON benchmarks the wire codec (encode microbench,
// stdlib gob vs binary) and the full transport (end-to-end loopback TCP,
// unbatched and batched) and writes BENCH_transport.json.
func writeTransportBenchJSON(path string, out *os.File) error {
	report := transportBenchReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	start := time.Now()
	msg := benchReportMsg()

	// Encode microbench: binary via AppendFrame into a reused buffer,
	// gob via the stdlib encoder into a reused stream (its steady-state
	// shape: the type dictionary is sent once per connection).
	binFrame, err := transport.AppendFrame(nil, &msg)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 4096)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = transport.AppendFrame(buf[:0], &msg)
		}
	})
	report.Encode = append(report.Encode, transportEncodeEntry{
		Codec: "binary", NsPerMsg: float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerMsg: len(binFrame), AllocsPerOp: r.AllocsPerOp(), Iterations: r.N,
	})
	report.EncodeAllocsPerMsg = float64(r.AllocsPerOp())

	// Gob steady state: the type dictionary ships once per stream, so
	// size the per-message cost from the second encode onward.
	var gobCount countingSink
	genc := gob.NewEncoder(&gobCount)
	if err := genc.Encode(msg); err != nil {
		return err
	}
	preDict := gobCount.n
	if err := genc.Encode(msg); err != nil {
		return err
	}
	gobBytes := int(gobCount.n - preDict)
	gobBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := genc.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	report.Encode = append(report.Encode, transportEncodeEntry{
		Codec: "gob", NsPerMsg: float64(gobBench.T.Nanoseconds()) / float64(gobBench.N),
		BytesPerMsg: gobBytes, AllocsPerOp: gobBench.AllocsPerOp(), Iterations: gobBench.N,
	})

	// End-to-end TCP: without coalescing, and with per-peer batching.
	modes := []struct {
		name string
		opts []transport.TCPOption
	}{
		{"binary-unbatched", []transport.TCPOption{transport.WithMaxBatch(1), transport.WithQueueDepth(1024)}},
		{"binary-batched", []transport.TCPOption{transport.WithQueueDepth(1024), transport.WithMaxBatch(512)}},
	}
	// Best of five timed rounds per mode, after one discarded warmup
	// round (connection setup, buffer growth to high-water, GC ramp).
	// Throughput through a real socket is noisy — GC pauses, neighbors
	// on the host — so the modes run interleaved, round-robin: a slow
	// window degrades one round of every mode rather than every round of
	// one mode, and the per-mode best lands in a clean window for all of
	// them.
	const runs = 5
	best := make([]transportTCPEntry, len(modes))
	for round := 0; round < runs+1; round++ {
		for mi, m := range modes {
			e, err := runTransportTCP(m.name, m.opts...)
			if err != nil {
				return err
			}
			if round > 0 && e.MsgsPerSec > best[mi].MsgsPerSec {
				best[mi] = e
			}
		}
	}
	report.TCP = append(report.TCP, best...)
	report.TotalWallClockNS = time.Since(start).Nanoseconds()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, e := range report.Encode {
		fmt.Fprintf(out, "encode %-16s %9.1f ns/msg %4d B/msg %3d allocs/op\n",
			e.Codec, e.NsPerMsg, e.BytesPerMsg, e.AllocsPerOp)
	}
	for _, e := range report.TCP {
		fmt.Fprintf(out, "tcp    %-16s %9.0f msgs/sec %6.1f B/msg %8d frames batched\n",
			e.Mode, e.MsgsPerSec, e.BytesPerMsg, e.FramesBatched)
	}
	fmt.Fprintf(out, "wrote %s (total %s)\n", path, time.Duration(report.TotalWallClockNS).Round(time.Millisecond))
	return nil
}
