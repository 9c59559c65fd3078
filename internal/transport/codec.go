package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary wire codec. The message vocabulary is nine fixed kinds with a
// dozen scalar fields, which gob serves with a reflective encode, a
// per-stream type dictionary and one syscall-sized write per message. At
// coordinator-ingest scale the bytes and the allocations are the cost, so
// the hot path hand-rolls its frames instead:
//
//	preamble (once per connection, dialer → listener)
//	  0xB1 'V' 'W' version        4 bytes, versions the whole codec
//
//	frame
//	  length   uint32 big-endian  length of body (tag byte onward)
//	  tag      1 byte             message Kind (1..9) or tagBatch
//	  body     per tag, below
//
//	single message (tag = Kind)
//	  fields   bitmap uvarint, then each set field in bit order
//
//	batch frame (tag = tagBatch)
//	  count    uvarint, >= 1
//	  msgs     count × (kind byte | fields)
//
// Fields are skipped when zero and encoded in fixed order when present:
//
//	bit  field      encoding
//	0    Task       uvarint length + bytes
//	1    From       uvarint length + bytes
//	2    Time       zig-zag varint (nanoseconds)
//	3    Value      8 bytes little-endian (IEEE 754 bits)
//	4    Reduction  8 bytes little-endian
//	5    Needed     8 bytes little-endian
//	6    Interval   8 bytes little-endian
//	7    Err        8 bytes little-endian
//	8    Seq        8 bytes little-endian (random-base, varints lose)
//	9    Epoch      uvarint
//	10   Payload    uvarint length + bytes
//
// Floats are compared and carried by bit pattern, so NaN payloads and
// negative zero survive the round trip exactly. There is no per-frame
// checksum: TCP already checksums the stream, and the one payload that
// must survive application-level relays — the replicated allowance
// snapshot — carries its own CRC32 (cluster.EncodeSnapshot).
const (
	// codecPreambleByte is the first byte a dialer writes.
	codecPreambleByte = 0xB1
	// codecVersion is the frame-format version the preamble declares.
	codecVersion = 1
	// tagBatch marks a frame carrying multiple messages.
	tagBatch = 0x7F
	// maxFrameBody bounds the length prefix a receiver honors: a
	// snapshot payload may reach 16 MiB (cluster.maxSnapshotBody), so
	// allow that plus framing slack, and reject anything larger as
	// corruption rather than allocating for it.
	maxFrameBody = 24 << 20
	// frameHeaderLen is the length-prefix size.
	frameHeaderLen = 4
)

// codecPreamble is the 4-byte connection header for codec version 1.
var codecPreamble = [4]byte{codecPreambleByte, 'V', 'W', codecVersion}

// Field-presence bits, in encoding order.
const (
	bitTask = 1 << iota
	bitFrom
	bitTime
	bitValue
	bitReduction
	bitNeeded
	bitInterval
	bitErr
	bitSeq
	bitEpoch
	bitPayload

	bitsKnown = bitPayload<<1 - 1
)

// Decode failures. All decoder errors wrap one of these, so hardened
// callers can distinguish truncation from structural corruption.
var (
	// ErrFrameTruncated: the frame body ends before its declared fields.
	ErrFrameTruncated = errors.New("transport: frame truncated")
	// ErrFrameCorrupt: unknown kind tag, unknown field bits, oversized
	// length prefix, an empty batch, or trailing garbage.
	ErrFrameCorrupt = errors.New("transport: frame corrupt")
)

// kindValid reports whether k is in the fixed wire vocabulary.
func kindValid(k Kind) bool {
	return k >= KindLocalViolation && k <= KindSnapshotAck
}

// appendMessage appends one kind byte + field body to dst.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	if !kindValid(m.Kind) {
		return dst, fmt.Errorf("transport: encode unknown kind %d", int(m.Kind))
	}
	var bits uint64
	if len(m.Task) > 0 {
		bits |= bitTask
	}
	if len(m.From) > 0 {
		bits |= bitFrom
	}
	if m.Time != 0 {
		bits |= bitTime
	}
	// Floats join by bit pattern so -0.0 and NaN are preserved.
	if math.Float64bits(m.Value) != 0 {
		bits |= bitValue
	}
	if math.Float64bits(m.Reduction) != 0 {
		bits |= bitReduction
	}
	if math.Float64bits(m.Needed) != 0 {
		bits |= bitNeeded
	}
	if math.Float64bits(m.Interval) != 0 {
		bits |= bitInterval
	}
	if math.Float64bits(m.Err) != 0 {
		bits |= bitErr
	}
	if m.Seq != 0 {
		bits |= bitSeq
	}
	if m.Epoch != 0 {
		bits |= bitEpoch
	}
	if len(m.Payload) > 0 {
		bits |= bitPayload
	}
	dst = append(dst, byte(m.Kind))
	dst = binary.AppendUvarint(dst, bits)
	if bits&bitTask != 0 {
		dst = AppendString(dst, m.Task)
	}
	if bits&bitFrom != 0 {
		dst = AppendString(dst, m.From)
	}
	if bits&bitTime != 0 {
		dst = binary.AppendVarint(dst, int64(m.Time))
	}
	if bits&bitValue != 0 {
		dst = AppendFloat64(dst, m.Value)
	}
	if bits&bitReduction != 0 {
		dst = AppendFloat64(dst, m.Reduction)
	}
	if bits&bitNeeded != 0 {
		dst = AppendFloat64(dst, m.Needed)
	}
	if bits&bitInterval != 0 {
		dst = AppendFloat64(dst, m.Interval)
	}
	if bits&bitErr != 0 {
		dst = AppendFloat64(dst, m.Err)
	}
	if bits&bitSeq != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	}
	if bits&bitEpoch != 0 {
		dst = binary.AppendUvarint(dst, m.Epoch)
	}
	if bits&bitPayload != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst, nil
}

// The field primitives below are the codec's whole vocabulary of
// encodings. They are exported so the one other binary format in the tree
// — the replicated allowance snapshot and the shard beacon
// (internal/cluster) — is built from the same pieces and read back by the
// same hardened readers, instead of growing a second set.

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat64 appends f as its 8-byte little-endian IEEE 754 bit
// pattern, so NaN payloads and negative zero survive exactly.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// beginFrame reserves the length prefix; endFrame backfills it.
func beginFrame(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0), start
}

func endFrame(dst []byte, start int) ([]byte, error) {
	body := len(dst) - start - frameHeaderLen
	if body > maxFrameBody {
		return dst[:start], fmt.Errorf("transport: encode frame body %d bytes exceeds %d", body, maxFrameBody)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// AppendFrame appends a complete single-message frame (length prefix
// included) to dst and returns the extended slice. dst may be nil; a
// reused buffer makes the encode path allocation-free in steady state,
// which TestEncodeZeroAlloc gates.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	dst, start := beginFrame(dst)
	var err error
	if dst, err = appendMessage(dst, m); err != nil {
		return dst[:start], err
	}
	return endFrame(dst, start)
}

// AppendBatchFrame appends one frame carrying every message in msgs —
// the per-peer coalescing format. A single-message slice produces the
// plain frame (no batch wrapper); an empty slice is an error.
func AppendBatchFrame(dst []byte, msgs []Message) ([]byte, error) {
	switch len(msgs) {
	case 0:
		return dst, fmt.Errorf("transport: encode empty batch")
	case 1:
		return AppendFrame(dst, &msgs[0])
	}
	dst, start := beginFrame(dst)
	dst = append(dst, tagBatch)
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	var err error
	for i := range msgs {
		if dst, err = appendMessage(dst, &msgs[i]); err != nil {
			return dst[:start], err
		}
	}
	return endFrame(dst, start)
}

// internTable caches decoded Task/From strings per connection so the
// steady-state decode path (the same task and sender names on every
// message) stops allocating once warm. Bounded: a hostile peer cycling
// names cannot grow it without limit.
type internTable struct {
	m map[string]string
	// last memoizes the two most recent hits (one slot each for the task
	// and sender names that alternate through decodeMessage): consecutive
	// messages in a batch frame overwhelmingly repeat both, and the
	// byte-equality check dodges the string hashing a map lookup pays.
	last [2]string
}

const internTableMax = 512

func newInternTable() *internTable {
	return &internTable{m: make(map[string]string)}
}

// str returns b as a string, reusing a cached copy when one exists. The
// map lookup with a []byte key conversion does not allocate.
func (t *internTable) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if string(b) == t.last[0] {
		return t.last[0]
	}
	if string(b) == t.last[1] {
		return t.last[1]
	}
	if s, ok := t.m[string(b)]; ok {
		t.last[0], t.last[1] = s, t.last[0]
		return s
	}
	s := string(b)
	if len(t.m) < internTableMax {
		t.m[s] = s
		t.last[0], t.last[1] = s, t.last[0]
	}
	return s
}

// frameDecoder holds per-connection decode state.
type frameDecoder struct {
	intern *internTable
}

func newFrameDecoder() *frameDecoder {
	return &frameDecoder{intern: newInternTable()}
}

// Uvarint reads an unsigned varint, erroring on truncation or a value
// overflowing 64 bits. The single-byte case — almost every field length
// and batch count on the wire — skips the generic decode loop.
func Uvarint(b []byte) (uint64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:], nil
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, fmt.Errorf("%w: bad uvarint", ErrFrameTruncated)
	}
	return v, b[n:], nil
}

// BytesField reads a uvarint-length-prefixed byte field, returning a
// sub-slice of b (no copy).
func BytesField(b []byte) ([]byte, []byte, error) {
	ln, b, err := Uvarint(b)
	if err != nil {
		return nil, b, err
	}
	if ln > uint64(len(b)) {
		return nil, b, fmt.Errorf("%w: field of %d bytes, %d remain", ErrFrameTruncated, ln, len(b))
	}
	return b[:ln], b[ln:], nil
}

// Fixed64 reads an 8-byte little-endian value.
func Fixed64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, b, fmt.Errorf("%w: fixed64 field, %d bytes remain", ErrFrameTruncated, len(b))
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// decodeMessage parses one kind byte + field body into *m (which must
// be zero-valued), returning the remaining bytes. Filling the caller's
// slot directly keeps the batch decode loop free of per-message struct
// copies. m.Payload is a sub-slice of b.
func (d *frameDecoder) decodeMessage(b []byte, m *Message) ([]byte, error) {
	if len(b) == 0 {
		return b, fmt.Errorf("%w: missing kind tag", ErrFrameTruncated)
	}
	k := Kind(b[0])
	if !kindValid(k) {
		return b, fmt.Errorf("%w: unknown kind tag %d", ErrFrameCorrupt, b[0])
	}
	m.Kind = k
	bits, b, err := Uvarint(b[1:])
	if err != nil {
		return b, err
	}
	if bits&^uint64(bitsKnown) != 0 {
		return b, fmt.Errorf("%w: unknown field bits %#x", ErrFrameCorrupt, bits)
	}
	var raw []byte
	var u uint64
	if bits&bitTask != 0 {
		if raw, b, err = BytesField(b); err != nil {
			return b, err
		}
		m.Task = d.intern.str(raw)
	}
	if bits&bitFrom != 0 {
		if raw, b, err = BytesField(b); err != nil {
			return b, err
		}
		m.From = d.intern.str(raw)
	}
	if bits&bitTime != 0 {
		v, n := binary.Varint(b)
		if n <= 0 {
			return b, fmt.Errorf("%w: bad time varint", ErrFrameTruncated)
		}
		m.Time, b = time.Duration(v), b[n:]
	}
	if bits&bitValue != 0 {
		if u, b, err = Fixed64(b); err != nil {
			return b, err
		}
		m.Value = math.Float64frombits(u)
	}
	if bits&bitReduction != 0 {
		if u, b, err = Fixed64(b); err != nil {
			return b, err
		}
		m.Reduction = math.Float64frombits(u)
	}
	if bits&bitNeeded != 0 {
		if u, b, err = Fixed64(b); err != nil {
			return b, err
		}
		m.Needed = math.Float64frombits(u)
	}
	if bits&bitInterval != 0 {
		if u, b, err = Fixed64(b); err != nil {
			return b, err
		}
		m.Interval = math.Float64frombits(u)
	}
	if bits&bitErr != 0 {
		if u, b, err = Fixed64(b); err != nil {
			return b, err
		}
		m.Err = math.Float64frombits(u)
	}
	if bits&bitSeq != 0 {
		if m.Seq, b, err = Fixed64(b); err != nil {
			return b, err
		}
	}
	if bits&bitEpoch != 0 {
		if m.Epoch, b, err = Uvarint(b); err != nil {
			return b, err
		}
	}
	if bits&bitPayload != 0 {
		if raw, b, err = BytesField(b); err != nil {
			return b, err
		}
		if len(raw) > 0 { // an empty field is no payload, as it was when copied out
			m.Payload = raw
		}
	}
	return b, nil
}

// decodeBodyInto parses a complete frame body (tag byte onward),
// appending each decoded message to msgs — decoded in place, so the
// hot read loop pays no per-message struct copies. Any error leaves the
// connection state poisoned by construction — the caller must drop the
// connection, exactly like a gob decode failure.
func (d *frameDecoder) decodeBodyInto(body []byte, msgs []Message) ([]Message, error) {
	if len(body) == 0 {
		return msgs, fmt.Errorf("%w: empty frame body", ErrFrameTruncated)
	}
	if body[0] != tagBatch {
		msgs = append(msgs, Message{})
		rest, err := d.decodeMessage(body, &msgs[len(msgs)-1])
		if err != nil {
			return msgs, err
		}
		if len(rest) != 0 {
			return msgs, fmt.Errorf("%w: %d trailing bytes after message", ErrFrameCorrupt, len(rest))
		}
		return msgs, nil
	}
	count, rest, err := Uvarint(body[1:])
	if err != nil {
		return msgs, err
	}
	if count == 0 {
		return msgs, fmt.Errorf("%w: batch frame with zero messages", ErrFrameCorrupt)
	}
	// Every message is at least two bytes (kind + bitmap), so a count
	// beyond that is a corrupt header, not a huge loop.
	if count > uint64(len(rest)) {
		return msgs, fmt.Errorf("%w: batch count %d exceeds body", ErrFrameCorrupt, count)
	}
	for i := uint64(0); i < count; i++ {
		msgs = append(msgs, Message{})
		if rest, err = d.decodeMessage(rest, &msgs[len(msgs)-1]); err != nil {
			return msgs, err
		}
	}
	if len(rest) != 0 {
		return msgs, fmt.Errorf("%w: %d trailing bytes after batch", ErrFrameCorrupt, len(rest))
	}
	return msgs, nil
}

// decodeBody is the callback-shaped variant behind DecodeFrame: it
// decodes the whole body first and emits only if every message parsed,
// so a malformed frame never leaks a partial prefix to the caller.
func (d *frameDecoder) decodeBody(body []byte, emit func(Message)) error {
	msgs, err := d.decodeBodyInto(body, nil)
	if err != nil {
		return err
	}
	for i := range msgs {
		emit(msgs[i])
	}
	return nil
}

// DecodeFrame decodes one complete frame — length prefix included —
// calling emit for each message it carries (one for a plain frame, each
// in order for a batch frame; a Payload points into frame). It is the
// exported, hardened entry point the round-trip property tests and
// FuzzDecodeFrame drive; the TCP read loop uses the same decoder
// incrementally with a per-connection string intern table.
func DecodeFrame(frame []byte, emit func(Message)) error {
	if len(frame) < frameHeaderLen {
		return fmt.Errorf("%w: %d bytes, need %d-byte length prefix", ErrFrameTruncated, len(frame), frameHeaderLen)
	}
	ln := binary.BigEndian.Uint32(frame)
	if ln > maxFrameBody {
		return fmt.Errorf("%w: length prefix %d exceeds %d", ErrFrameCorrupt, ln, maxFrameBody)
	}
	body := frame[frameHeaderLen:]
	if uint64(ln) != uint64(len(body)) {
		return fmt.Errorf("%w: length prefix %d, body %d", ErrFrameTruncated, ln, len(body))
	}
	return newFrameDecoder().decodeBody(body, emit)
}
