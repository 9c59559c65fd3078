package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"volley/internal/alerts"
	"volley/internal/alloctest"
	"volley/internal/coord"
	"volley/internal/obs"
	"volley/internal/transport"
)

func testState(epoch uint64) coord.AllowanceState {
	return coord.AllowanceState{
		Task:  "t1",
		Epoch: epoch,
		Err:   0.05,
		Assignments: map[string]float64{
			"m1": 0.04,
			"m2": 0.01,
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testState(7)
	frame, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestSnapshotDecodeRejections(t *testing.T) {
	frame, err := EncodeSnapshot(testState(3))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated short", func(t *testing.T) {
		if _, err := DecodeSnapshot(frame[:snapshotHeaderLen-1]); !errors.Is(err, ErrFrameTruncated) {
			t.Errorf("err = %v, want ErrFrameTruncated", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := DecodeSnapshot(frame[:len(frame)-5]); !errors.Is(err, ErrFrameTruncated) {
			t.Errorf("err = %v, want ErrFrameTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0] = 'X'
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrFrameMalformed) {
			t.Errorf("err = %v, want ErrFrameMalformed", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		// Version 1 was the JSON body; there is one body format and one
		// decoder, so it is as unknown as any other number.
		for _, v := range []byte{0, 1, 3, 99} {
			bad := append([]byte(nil), frame...)
			bad[4] = v
			if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrFrameMalformed) {
				t.Errorf("version %d: err = %v, want ErrFrameMalformed", v, err)
			}
		}
	})
	t.Run("bytes after the trailer", func(t *testing.T) {
		if _, err := DecodeSnapshot(append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrFrameMalformed) {
			t.Errorf("err = %v, want ErrFrameMalformed", err)
		}
	})
	t.Run("checksum mismatch", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[snapshotHeaderLen] ^= 0x01 // flip a body bit, leave the trailer
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrFrameChecksum) {
			t.Errorf("err = %v, want ErrFrameChecksum", err)
		}
	})
	t.Run("huge declared body", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		binary.BigEndian.PutUint32(bad[13:], maxSnapshotBody+1)
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrFrameMalformed) {
			t.Errorf("err = %v, want ErrFrameMalformed", err)
		}
	})
	t.Run("header body epoch mismatch", func(t *testing.T) {
		// Forge a frame whose header epoch disagrees with the body — with a
		// recomputed checksum, so only the cross-check can catch it.
		bad := append([]byte(nil), frame...)
		binary.BigEndian.PutUint64(bad[5:], 4)
		end := len(bad) - snapshotTrailerLen
		binary.BigEndian.PutUint32(bad[end:], crc32.ChecksumIEEE(bad[:end]))
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrFrameMalformed) {
			t.Errorf("err = %v, want ErrFrameMalformed", err)
		}
	})
}

// TestSnapshotBodyHasOneEncoding: a body that would decode to a state but
// is not the bytes EncodeSnapshot writes for it — a padded varint, map keys
// out of order or repeated, bytes after the last field — is malformed, so
// whatever the store accepts re-encodes to itself.
func TestSnapshotBodyHasOneEncoding(t *testing.T) {
	st := testState(3)
	st.Task = "t"
	frame, err := EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	body := func() []byte {
		return append([]byte(nil), frame[snapshotHeaderLen:len(frame)-snapshotTrailerLen]...)
	}
	rebuild := func(body []byte) []byte {
		out := append(append([]byte(nil), frame[:snapshotHeaderLen]...), body...)
		return resealed(append(out, 0, 0, 0, 0))
	}
	if _, err := DecodeSnapshot(rebuild(body())); err != nil {
		t.Fatalf("resealed but unedited frame: %v", err)
	}

	// Body starts: len("t")=1, 't', epoch=3. Pad the epoch to two bytes.
	padded := body()
	padded = append(padded[:2:2], append([]byte{0x83, 0x00}, padded[3:]...)...)
	// The assignments are m1 then m2, 11 bytes each (length, two letters,
	// float), after the fixed part; swap them, then repeat the first.
	fixed := 2 + 1 + 8 + 1 + 1 + 1 // task, epoch, err, now, ticks, count
	swapped := body()
	copy(swapped[fixed:], body()[fixed+11:fixed+22])
	copy(swapped[fixed+11:], body()[fixed:fixed+11])
	repeated := body()
	copy(repeated[fixed+11:], body()[fixed:fixed+11])
	for name, b := range map[string][]byte{
		"padded varint":  padded,
		"keys swapped":   swapped,
		"key repeated":   repeated,
		"trailing bytes": append(body(), 0),
		"cut short":      body()[:len(body())-1],
	} {
		if _, err := DecodeSnapshot(rebuild(b)); !errors.Is(err, ErrFrameMalformed) {
			t.Errorf("%s: err = %v, want ErrFrameMalformed", name, err)
		}
	}
}

func TestSnapshotStoreEpochs(t *testing.T) {
	s := NewSnapshotStore("n1", nil, nil)

	frame2, _ := EncodeSnapshot(testState(2))
	if _, err := s.Put("t1", "a", 0, frame2); err != nil {
		t.Fatal(err)
	}

	// Same epoch again: stale.
	if _, err := s.Put("t1", "a", 1, frame2); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("re-put of epoch 2 = %v, want ErrSnapshotStale", err)
	}
	// Older epoch: stale, held entry untouched.
	frame1, _ := EncodeSnapshot(testState(1))
	if _, err := s.Put("t1", "b", 2, frame1); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("put of epoch 1 over 2 = %v, want ErrSnapshotStale", err)
	}
	if e, ok := s.Get("t1"); !ok || e.Epoch != 2 || e.From != "a" {
		t.Errorf("held entry = %+v, want epoch 2 from a", e)
	}

	// Newer epoch: applied.
	frame3, _ := EncodeSnapshot(testState(3))
	if _, err := s.Put("t1", "b", 3, frame3); err != nil {
		t.Fatal(err)
	}
	if e, _ := s.Get("t1"); e.Epoch != 3 || e.From != "b" {
		t.Errorf("held entry after epoch 3 = %+v", e)
	}

	// Corrupt frames never displace the held entry.
	bad := append([]byte(nil), frame3...)
	bad[len(bad)-1] ^= 0xff
	if _, err := s.Put("t1", "c", 4, bad); err == nil || errors.Is(err, ErrSnapshotStale) {
		t.Errorf("corrupt put = %v, want a decode error", err)
	}
	if e, _ := s.Get("t1"); e.Epoch != 3 {
		t.Errorf("corrupt frame displaced held entry: %+v", e)
	}

	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	s.Drop("t1")
	if _, ok := s.Get("t1"); ok {
		t.Error("entry survived Drop")
	}
}

// TestSnapshotThroughBinaryWireCodec proves the layering holds end to
// end: a VSNP snapshot frame rides opaquely inside a KindSnapshot
// message through the transport's binary wire codec, and the payload
// that comes out still passes its own CRC and decodes to the same
// state. The snapshot CRC is the only content check in the stack (the
// wire codec deliberately has none — TCP checksums the stream), so the
// two layers together must not disturb a single byte.
func TestSnapshotThroughBinaryWireCodec(t *testing.T) {
	want := testState(7)
	payload, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := transport.AppendFrame(nil, &transport.Message{
		Kind: transport.KindSnapshot, Task: want.Task, From: "shard-a",
		Epoch: want.Epoch, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []transport.Message
	if err := transport.DecodeFrame(frame, func(m transport.Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d messages, want 1", len(got))
	}
	st, err := DecodeSnapshot(got[0].Payload)
	if err != nil {
		t.Fatalf("snapshot CRC/decode after wire round trip: %v", err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("state changed across the wire:\n want %+v\n  got %+v", want, st)
	}

	// Flip one payload byte inside the wire frame: the wire codec
	// delivers it (no frame CRC, by design), the snapshot CRC catches it.
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0x01
	got = got[:0]
	if err := transport.DecodeFrame(corrupt, func(m transport.Message) { got = append(got, m) }); err != nil {
		t.Fatalf("wire decode of payload-corrupted frame: %v", err)
	}
	if _, err := DecodeSnapshot(got[0].Payload); !errors.Is(err, ErrFrameChecksum) {
		t.Errorf("snapshot decode error = %v, want ErrFrameChecksum", err)
	}
}

// randomState draws an allowance state of n monitors with every optional
// part present or absent at random: reclaimed slices, a dead list, liveness
// clocks, and live alerts with monitor context and a transition history.
// Floats include NaN (with a payload), infinities and negative zero.
func randomState(rng *rand.Rand, n int) coord.AllowanceState {
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0dead0000beef),
	}
	float := func() float64 {
		if rng.Intn(4) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64()
	}
	dur := func() time.Duration { return time.Duration(rng.Int63n(1<<40) - 1<<20) }
	st := coord.AllowanceState{
		Task:  fmt.Sprintf("task-%d", rng.Intn(1000)),
		Epoch: rng.Uint64() >> uint(rng.Intn(64)),
		Err:   float(),
		Now:   dur(),
		Ticks: rng.Uint64() >> uint(rng.Intn(64)),
	}
	mons := make([]string, n)
	for i := range mons {
		mons[i] = fmt.Sprintf("%s/mon/m%04d", st.Task, i)
	}
	if n > 0 {
		st.Assignments = make(map[string]float64, n)
	}
	for _, m := range mons {
		st.Assignments[m] = float()
		if rng.Intn(5) == 0 {
			if st.Reclaimed == nil {
				st.Reclaimed = map[string]float64{}
			}
			st.Reclaimed[m] = float()
		}
		if rng.Intn(5) == 0 {
			st.Dead = append(st.Dead, m)
		}
		if rng.Intn(2) == 0 {
			if st.LastSeen == nil {
				st.LastSeen = map[string]time.Duration{}
			}
			st.LastSeen[m] = dur()
		}
	}
	// The dead list keeps its order, whatever it is, and may repeat.
	rng.Shuffle(len(st.Dead), func(i, j int) { st.Dead[i], st.Dead[j] = st.Dead[j], st.Dead[i] })
	for i := rng.Intn(3); i > 0; i-- {
		a := alerts.Alert{
			ID: rng.Uint64(), Task: st.Task, Window: dur(),
			Status:   alerts.Status(1 + rng.Intn(2)),
			RaisedAt: dur(), LastSeen: dur(), Occurrences: uint64(rng.Intn(1000)),
			Value: float(), Peak: float(),
		}
		if a.Status == alerts.StatusAcked {
			a.AckedBy = "operator@example"
		}
		for j := rng.Intn(alerts.DefaultMaxMonitors + 1); j > 0 && n > 0; j-- {
			if a.Monitors == nil {
				a.Monitors = map[string]float64{}
			}
			a.Monitors[mons[rng.Intn(n)]] = float()
		}
		for j := rng.Intn(alerts.DefaultMaxHistory + 1); j > 0; j-- {
			a.History = append(a.History, alerts.Transition{
				At: dur(), Status: alerts.Status(1 + rng.Intn(4)),
				Actor: []string{"", "coord", "auto", "handoff:shard-b"}[rng.Intn(4)],
			})
		}
		st.Alerts = append(st.Alerts, a)
	}
	return st
}

// sameState is reflect.DeepEqual with floats compared by bit pattern, so
// NaN equals the same NaN and 0 differs from -0.
func sameState(a, b coord.AllowanceState) bool {
	bitsOf := func(m map[string]float64) map[string]uint64 {
		if m == nil {
			return nil
		}
		out := make(map[string]uint64, len(m))
		for k, v := range m {
			out[k] = math.Float64bits(v)
		}
		return out
	}
	type alertBits struct {
		alerts.Alert
		value, peak uint64
		monitors    map[string]uint64
	}
	norm := func(st coord.AllowanceState) (coord.AllowanceState, []any) {
		extra := []any{math.Float64bits(st.Err), bitsOf(st.Assignments), bitsOf(st.Reclaimed)}
		for _, a := range st.Alerts {
			ab := alertBits{Alert: a, value: math.Float64bits(a.Value), peak: math.Float64bits(a.Peak), monitors: bitsOf(a.Monitors)}
			ab.Value, ab.Peak, ab.Monitors = 0, 0, nil
			extra = append(extra, ab)
		}
		st.Err, st.Assignments, st.Reclaimed, st.Alerts = 0, nil, nil, nil
		return st, extra
	}
	sa, ea := norm(a)
	sb, eb := norm(b)
	return reflect.DeepEqual(sa, sb) && reflect.DeepEqual(ea, eb)
}

// TestSnapshotRoundTripProperty: any state survives encode → decode bit for
// bit, and its frame is the only frame for it (decode → encode gives the
// same bytes) — also when it is appended to a buffer that held another
// state's frame a moment ago, or behind bytes already in the buffer.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{0, 1, 2, 16, 1024}
	var reused []byte
	for i := 0; i < 300; i++ {
		n := sizes[i%len(sizes)]
		if n == 1024 && i > 25 {
			n = rng.Intn(64)
		}
		want := randomState(rng, n)
		frame, err := EncodeSnapshot(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(frame)
		if err != nil {
			t.Fatalf("state %d (%d monitors): %v", i, n, err)
		}
		if !sameState(got, want) {
			t.Fatalf("state %d (%d monitors) changed in the round trip:\n want %+v\n  got %+v", i, n, want, got)
		}
		again, err := EncodeSnapshot(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("state %d (%d monitors) re-encodes to different bytes", i, n)
		}
		if reused, err = AppendSnapshot(reused[:0], &want); err != nil || !bytes.Equal(reused, frame) {
			t.Fatalf("state %d (%d monitors) appended to a used buffer differs from its frame (%v)", i, n, err)
		}
		const prefix = "kept"
		behind, err := AppendSnapshot(append(reused[:0], prefix...), &want)
		if err != nil || string(behind[:len(prefix)]) != prefix || !bytes.Equal(behind[len(prefix):], frame) {
			t.Fatalf("state %d (%d monitors) appended behind other bytes differs from its frame (%v)", i, n, err)
		}
		reused = behind // the next state finds it longer, and dirty
	}
}

// TestExportIntoMatchesExport: the frame of a state exported into reused
// scratch is the frame of a fresh export (but for the epoch, which every
// export advances), even when the scratch last held a larger task — and a
// larger live alert, whose monitor map and history the export reuses too.
func TestExportIntoMatchesExport(t *testing.T) {
	mk := func(n int) *coord.Coordinator {
		mons := make([]string, n)
		for i := range mons {
			mons[i] = fmt.Sprintf("m%d", i)
		}
		local := transport.NewMemory()
		sinkNet(t, local, mons...)
		reg := alerts.New(alerts.Config{})
		c, err := coord.New(coord.Config{
			ID: fmt.Sprintf("c%d", n), Task: "t", Threshold: 100, Err: 0.05,
			Monitors: mons, Network: local, Alerts: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Tick(time.Second)
		// A live alert with one transition and one monitor of context per
		// monitor of the task; the small task's is acked besides.
		id, _ := reg.Raise("t", time.Second, 100+float64(n))
		for i, m := range mons {
			reg.ObserveLocal("t", m, time.Second, float64(i))
			reg.Raise("t", time.Duration(i+2)*time.Second, 100+float64(i))
		}
		if n == 2 {
			if err := reg.Ack(id, time.Minute, "operator"); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	big, small := mk(8), mk(2)
	var scratch coord.AllowanceState
	big.ExportAllowanceInto(&scratch)
	if len(scratch.Alerts) != 1 || len(scratch.Alerts[0].Monitors) != 8 {
		t.Fatalf("the big task exported %+v, want its alert with 8 monitors", scratch.Alerts)
	}
	small.ExportAllowanceInto(&scratch)
	fresh := small.ExportAllowance()
	if len(fresh.Alerts) != 1 || fresh.Alerts[0].AckedBy != "operator" || len(fresh.Alerts[0].Monitors) != 2 || len(fresh.Alerts[0].History) != 2 {
		t.Fatalf("the small task exported %+v, want its acked alert with 2 monitors and 2 transitions", fresh.Alerts)
	}
	scratch.Epoch = fresh.Epoch
	a, err := EncodeSnapshot(scratch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("reused export %+v\n differs from fresh export %+v", scratch, fresh)
	}
}

// resealed returns frame with its body length set to the bytes present and
// its last four bytes replaced by the checksum of the rest, so that an
// edited frame reaches the body walk.
func resealed(frame []byte) []byte {
	if len(frame) < snapshotHeaderLen+snapshotTrailerLen {
		return frame
	}
	end := len(frame) - snapshotTrailerLen
	out := append([]byte(nil), frame[:end]...)
	binary.BigEndian.PutUint32(out[13:], uint32(end-snapshotHeaderLen))
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// FuzzDecodeSnapshot: DecodeSnapshot never panics, whatever it accepts
// re-encodes to the same bytes, and what it allocates is bounded by the
// frame's length (a forged count cannot size an allocation). Every input
// is tried as given and with its trailer recomputed — a mutated body would
// otherwise never get past the checksum.
func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	plain, _ := EncodeSnapshot(testState(3))
	rich, _ := EncodeSnapshot(randomState(rng, 5))
	empty, _ := EncodeSnapshot(coord.AllowanceState{})
	for _, frame := range [][]byte{plain, rich, empty} {
		f.Add(frame)
	}
	// The rejections TestSnapshotDecodeRejections lists.
	f.Add(plain[:snapshotHeaderLen-1])
	f.Add(plain[:len(plain)-5])
	for _, edit := range []func([]byte){
		func(b []byte) { b[0] = 'X' },
		func(b []byte) { b[4] = 1 },
		func(b []byte) { b[4] = 99 },
		func(b []byte) { b[snapshotHeaderLen] ^= 0x01 },
		func(b []byte) { binary.BigEndian.PutUint32(b[13:], maxSnapshotBody+1) },
		func(b []byte) { binary.BigEndian.PutUint64(b[5:], 4) },
	} {
		bad := append([]byte(nil), plain...)
		edit(bad)
		f.Add(bad)
	}
	// A frame cut at every offset; resealing makes each a body that ends
	// mid-field.
	for i := 0; i < len(rich); i++ {
		f.Add(rich[:i])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, in := range [][]byte{frame, resealed(frame)} {
			var st coord.AllowanceState
			var err error
			got, _ := alloctest.Least(3, nil, func() { st, err = DecodeSnapshot(in) })
			if limit := uint64(64*len(in) + 4096); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), got, limit)
			}
			if err != nil {
				if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameChecksum) && !errors.Is(err, ErrFrameMalformed) {
					t.Fatalf("error %v wraps none of the frame errors", err)
				}
				continue
			}
			again, err := EncodeSnapshot(st)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", in, again)
			}
		}
	})
}

// TestSnapshotStoreStaleBeforeBody: a frame whose epoch is not newer than
// the held one is turned away on its header alone — its body is never
// read, so even a body that does not parse yields ErrSnapshotStale, not a
// decode error — and every rejection is traced against the envelope's
// task, which is all a corrupt frame can be attributed to.
func TestSnapshotStoreStaleBeforeBody(t *testing.T) {
	tracer := obs.NewTracer(16)
	s := NewSnapshotStore("n1", nil, tracer)
	fresh, _ := EncodeSnapshot(testState(5))
	if _, err := s.Put("t1", "a", 0, fresh); err != nil {
		t.Fatal(err)
	}
	garbled, _ := EncodeSnapshot(testState(5))
	for i := snapshotHeaderLen; i < len(garbled)-snapshotTrailerLen; i++ {
		garbled[i] = 0xff
	}
	garbled = resealed(garbled)
	if _, err := DecodeSnapshot(garbled); !errors.Is(err, ErrFrameMalformed) {
		t.Fatalf("garbled body decodes: %v", err)
	}
	if _, err := s.Put("t1", "b", 1, garbled); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("stale frame with a garbled body = %v, want ErrSnapshotStale", err)
	}
	// The same body under a newer epoch is read, and refused.
	binary.BigEndian.PutUint64(garbled[5:], 6)
	if _, err := s.Put("t1", "b", 2, resealed(garbled)); !errors.Is(err, ErrFrameMalformed) {
		t.Errorf("fresh frame with a garbled body = %v, want ErrFrameMalformed", err)
	}
	// A well-formed frame for another task than its envelope names.
	other := testState(9)
	other.Task = "t2"
	misfiled, _ := EncodeSnapshot(other)
	if _, err := s.Put("t1", "b", 3, misfiled); !errors.Is(err, ErrFrameMalformed) {
		t.Errorf("frame for t2 in an envelope for t1 = %v, want ErrFrameMalformed", err)
	}
	if e, _ := s.Get("t1"); e.Epoch != 5 || e.From != "a" {
		t.Errorf("held entry = %+v, want epoch 5 from a", e)
	}
	if _, ok := s.Get("t2"); ok {
		t.Error("misfiled frame was stored under its body's task")
	}
	rejects := 0
	for _, ev := range tracer.Events() {
		if ev.Type != obs.EventSnapshotReject {
			continue
		}
		rejects++
		if ev.Task != "t1" {
			t.Errorf("rejection traced against task %q, want the envelope's t1", ev.Task)
		}
	}
	if rejects != 3 {
		t.Errorf("traced %d rejections, want 3", rejects)
	}
}

// TestSnapshotStorePutAllocs: taking a fresh frame allocates nothing — the
// walk builds no state and the entry replaces the held one in place.
func TestSnapshotStorePutAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := randomState(rng, 16)
	st.Task = "t1"
	const runs = 100
	frames := make([][]byte, runs+2)
	for i := range frames {
		st.Epoch = uint64(i + 1)
		frames[i], _ = EncodeSnapshot(st)
	}
	s := NewSnapshotStore("n1", nil, nil)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.Put("t1", "a", 0, frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("Put of a fresh frame allocates %v times, want 0", allocs)
	}
	if e, _ := s.Get("t1"); e.Epoch != uint64(next) {
		t.Errorf("held epoch %d after %d puts", e.Epoch, next)
	}
}
