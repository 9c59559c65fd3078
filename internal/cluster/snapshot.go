package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"volley/internal/alerts"
	"volley/internal/coord"
	"volley/internal/obs"
	"volley/internal/transport"
)

// Snapshot frames are the wire format for replicated allowance state: a
// fixed header, a binary body built from the transport codec's field
// primitives, and a trailing checksum.
//
//	offset  size  field
//	0       4     magic "VSNP"
//	4       1     frame version (snapshotFrameVersion)
//	5       8     snapshot epoch, big-endian (mirrors the body's epoch)
//	13      4     body length, big-endian
//	17      n     body, below
//	17+n    4     CRC32 (IEEE) over bytes [0, 17+n)
//
// The body is coord.AllowanceState field by field. "string" is a uvarint
// length and the bytes, "varint" a zig-zag varint (durations, in
// nanoseconds), "float" the 8-byte little-endian IEEE 754 bit pattern, so
// NaN and negative zero survive; every list is a uvarint count and then
// its entries.
//
//	field        encoding
//	Task         string
//	Epoch        uvarint
//	Err          float
//	Now          varint
//	Ticks        uvarint
//	Assignments  count × (string, float), keys strictly ascending
//	Reclaimed    count × (string, float), keys strictly ascending
//	Dead         count × string, order kept
//	LastSeen     count × (string, varint), keys strictly ascending
//	Alerts       count × alert
//
//	alert        ID uvarint, Task string, Window varint, Status byte,
//	             RaisedAt varint, LastSeen varint, ResolvedAt varint,
//	             Occurrences uvarint, Value float, Peak float,
//	             Monitors count × (string, float) ascending,
//	             AckedBy string, History count × (At varint, Status byte,
//	             Actor string)
//
// A state has exactly one encoding: maps are written in key order, every
// varint must be minimal, and nothing may follow the body or the trailer.
// An accepted frame therefore re-encodes to the same bytes, which is what
// lets the store keep frames instead of decoded states.
//
// The epoch rides in the header so a receiver can reject a stale frame
// before it reads the body, and the checksum covers the header too, so a
// corrupted epoch cannot masquerade as fresh.
const (
	snapshotMagic        = "VSNP"
	snapshotFrameVersion = 2
	snapshotHeaderLen    = 4 + 1 + 8 + 4
	snapshotTrailerLen   = 4
	// maxSnapshotBody bounds the declared body length so a corrupted
	// length field cannot drive a huge allocation.
	maxSnapshotBody = 16 << 20
)

// Frame decode failures, distinguishable so the store can count stale
// rejections apart from corruption.
var (
	// ErrFrameTruncated: the frame is shorter than its header and trailer,
	// or shorter than the body length the header declares.
	ErrFrameTruncated = errors.New("cluster: snapshot frame truncated")
	// ErrFrameChecksum: the trailing CRC32 does not match the frame bytes.
	ErrFrameChecksum = errors.New("cluster: snapshot frame checksum mismatch")
	// ErrFrameMalformed: bad magic, unknown frame version (version 1, the
	// JSON body, included), a body that does not parse or is not in its
	// one canonical form, bytes after the trailer, or a header epoch
	// disagreeing with the body.
	ErrFrameMalformed = errors.New("cluster: snapshot frame malformed")
	// ErrSnapshotStale: the frame's epoch is not newer than the epoch
	// already held for the task.
	ErrSnapshotStale = errors.New("cluster: snapshot epoch stale")
)

// snapshotEncoder is the scratch one encode needs beside the frame: the keys
// of the map being written, sorted.
type snapshotEncoder struct {
	keys []string
}

var snapshotEncoders = sync.Pool{New: func() any { return new(snapshotEncoder) }}

// EncodeSnapshot serializes st into a freshly allocated framed, checksummed
// snapshot. The frame epoch is st.Epoch.
func EncodeSnapshot(st coord.AllowanceState) ([]byte, error) { return AppendSnapshot(nil, &st) }

// AppendSnapshot appends st's frame to dst and returns the extended slice;
// into a reused buffer it allocates nothing. It is the one encoder. On an
// error dst comes back as it was given.
func AppendSnapshot(dst []byte, st *coord.AllowanceState) ([]byte, error) {
	e := snapshotEncoders.Get().(*snapshotEncoder)
	defer snapshotEncoders.Put(e)
	start := len(dst)
	b := append(dst, snapshotMagic...)
	b = append(b, snapshotFrameVersion)
	b = binary.BigEndian.AppendUint64(b, st.Epoch)
	b = append(b, 0, 0, 0, 0) // body length, backfilled
	b = e.appendBody(b, st)
	body := len(b) - start - snapshotHeaderLen
	if body > maxSnapshotBody {
		return b[:start], fmt.Errorf("cluster: encode snapshot for %q: body %d bytes exceeds %d", st.Task, body, maxSnapshotBody)
	}
	binary.BigEndian.PutUint32(b[start+13:], uint32(body))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:])), nil
}

func (e *snapshotEncoder) appendBody(b []byte, st *coord.AllowanceState) []byte {
	b = transport.AppendString(b, st.Task)
	b = binary.AppendUvarint(b, st.Epoch)
	b = transport.AppendFloat64(b, st.Err)
	b = binary.AppendVarint(b, int64(st.Now))
	b = binary.AppendUvarint(b, st.Ticks)
	b = e.appendFloatMap(b, st.Assignments)
	b = e.appendFloatMap(b, st.Reclaimed)
	b = binary.AppendUvarint(b, uint64(len(st.Dead)))
	for _, m := range st.Dead {
		b = transport.AppendString(b, m)
	}
	b = binary.AppendUvarint(b, uint64(len(st.LastSeen)))
	e.keys = sortedKeys(e.keys[:0], st.LastSeen)
	for _, m := range e.keys {
		b = transport.AppendString(b, m)
		b = binary.AppendVarint(b, int64(st.LastSeen[m]))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Alerts)))
	for i := range st.Alerts {
		a := &st.Alerts[i]
		b = binary.AppendUvarint(b, a.ID)
		b = transport.AppendString(b, a.Task)
		b = binary.AppendVarint(b, int64(a.Window))
		b = append(b, byte(a.Status))
		b = binary.AppendVarint(b, int64(a.RaisedAt))
		b = binary.AppendVarint(b, int64(a.LastSeen))
		b = binary.AppendVarint(b, int64(a.ResolvedAt))
		b = binary.AppendUvarint(b, a.Occurrences)
		b = transport.AppendFloat64(b, a.Value)
		b = transport.AppendFloat64(b, a.Peak)
		b = e.appendFloatMap(b, a.Monitors)
		b = transport.AppendString(b, a.AckedBy)
		b = binary.AppendUvarint(b, uint64(len(a.History)))
		for _, tr := range a.History {
			b = binary.AppendVarint(b, int64(tr.At))
			b = append(b, byte(tr.Status))
			b = transport.AppendString(b, tr.Actor)
		}
	}
	// The key scratch goes back to the pool; do not pin the names.
	clear(e.keys)
	return b
}

func (e *snapshotEncoder) appendFloatMap(b []byte, m map[string]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	e.keys = sortedKeys(e.keys[:0], m)
	for _, k := range e.keys {
		b = transport.AppendString(b, k)
		b = transport.AppendFloat64(b, m[k])
	}
	return b
}

// sortedKeys appends m's keys to dst and sorts them.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// openSnapshotFrame checks everything about a frame that does not need its
// body read — magic, version, declared length against the bytes present,
// checksum — and returns the header epoch and the body.
func openSnapshotFrame(frame []byte) (epoch uint64, body []byte, err error) {
	if len(frame) < snapshotHeaderLen+snapshotTrailerLen {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTruncated, len(frame))
	}
	if string(frame[:4]) != snapshotMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrFrameMalformed, frame[:4])
	}
	if frame[4] != snapshotFrameVersion {
		return 0, nil, fmt.Errorf("%w: frame version %d", ErrFrameMalformed, frame[4])
	}
	epoch = binary.BigEndian.Uint64(frame[5:])
	bodyLen := int(binary.BigEndian.Uint32(frame[13:]))
	if bodyLen > maxSnapshotBody {
		return 0, nil, fmt.Errorf("%w: declared body %d bytes", ErrFrameMalformed, bodyLen)
	}
	end := snapshotHeaderLen + bodyLen
	if len(frame) < end+snapshotTrailerLen {
		return 0, nil, fmt.Errorf("%w: declared body %d bytes, frame %d", ErrFrameTruncated, bodyLen, len(frame))
	}
	if len(frame) > end+snapshotTrailerLen {
		return 0, nil, fmt.Errorf("%w: %d bytes after the trailer", ErrFrameMalformed, len(frame)-end-snapshotTrailerLen)
	}
	want := binary.BigEndian.Uint32(frame[end:])
	if got := crc32.ChecksumIEEE(frame[:end]); got != want {
		return 0, nil, fmt.Errorf("%w: got %08x want %08x", ErrFrameChecksum, got, want)
	}
	return epoch, frame[snapshotHeaderLen:end], nil
}

// DecodeSnapshot validates and decodes a snapshot frame. Errors wrap one
// of ErrFrameTruncated, ErrFrameChecksum or ErrFrameMalformed. Empty maps
// and lists decode to nil.
func DecodeSnapshot(frame []byte) (coord.AllowanceState, error) {
	epoch, body, err := openSnapshotFrame(frame)
	if err != nil {
		return coord.AllowanceState{}, err
	}
	var st coord.AllowanceState
	if _, err := parseSnapshotBody(body, epoch, &st); err != nil {
		return coord.AllowanceState{}, err
	}
	return st, nil
}

// snapshotReader reads a body front to back. The first failure sticks:
// later reads return zeros, so the layout below reads straight through and
// the error is looked at once, at the end.
type snapshotReader struct {
	b   []byte
	err error
}

func (r *snapshotReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: body: %s", ErrFrameMalformed, what)
	}
}

func (r *snapshotReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, rest, err := transport.Uvarint(r.b)
	if err != nil {
		r.fail("truncated varint")
		return 0
	}
	// One state, one encoding: a padded varint would decode to the same
	// value and re-encode shorter.
	if len(r.b)-len(rest) != (bits.Len64(v|1)+6)/7 {
		r.fail("varint not minimal")
		return 0
	}
	r.b = rest
	return v
}

func (r *snapshotReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *snapshotReader) duration() time.Duration { return time.Duration(r.varint()) }

func (r *snapshotReader) float() float64 {
	if r.err != nil {
		return 0
	}
	u, rest, err := transport.Fixed64(r.b)
	if err != nil {
		r.fail("truncated float")
		return 0
	}
	r.b = rest
	return math.Float64frombits(u)
}

func (r *snapshotReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *snapshotReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("string longer than the body")
		return nil
	}
	raw := r.b[:n]
	r.b = r.b[n:]
	return raw
}

// count reads a list length, refusing one whose entries — at least min
// bytes each — could not fit in what is left, so a forged count cannot
// size an allocation.
func (r *snapshotReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("list longer than the body")
		return 0
	}
	return int(n)
}

func (r *snapshotReader) status() alerts.Status {
	s := alerts.Status(r.byte())
	if r.err == nil && (s < alerts.StatusOpen || s > alerts.StatusExpired) {
		r.fail("unknown alert status")
	}
	return s
}

// key reads a map's next key, which unless it is the first must sort
// after prev, the one before it.
func (r *snapshotReader) key(prev []byte, first bool) []byte {
	k := r.bytes()
	if !first && bytes.Compare(prev, k) >= 0 {
		r.fail("map keys not ascending")
	}
	return k
}

// floatMap reads count × (string, float). With keep false it checks and
// builds nothing.
func (r *snapshotReader) floatMap(keep bool) map[string]float64 {
	n := r.count(1 + 8)
	var m map[string]float64
	if keep && n > 0 {
		m = make(map[string]float64, n)
	}
	var k []byte
	for i := 0; i < n && r.err == nil; i++ {
		k = r.key(k, i == 0)
		v := r.float()
		if m != nil {
			m[string(k)] = v
		}
	}
	return m
}

// durationMap is floatMap for count × (string, varint). The two are not
// one generic function over a value reader: calling through a func value
// would make the reader escape, and the store's walk must not allocate.
func (r *snapshotReader) durationMap(keep bool) map[string]time.Duration {
	n := r.count(1 + 1)
	var m map[string]time.Duration
	if keep && n > 0 {
		m = make(map[string]time.Duration, n)
	}
	var k []byte
	for i := 0; i < n && r.err == nil; i++ {
		k = r.key(k, i == 0)
		v := r.duration()
		if m != nil {
			m[string(k)] = v
		}
	}
	return m
}

// Smallest encodings of one list entry, for count.
const (
	minAlertLen      = 11 + 2*8 // eleven fields of a byte or more, two floats
	minTransitionLen = 3
)

// parseSnapshotBody is the one reader of the body layout. With st nil it is
// the store's well-formedness walk: every length, the canonical form, the
// body epoch against the header's, and it allocates nothing on a well-formed
// body. With st set it also fills *st. It returns the task name as the bytes
// inside body.
func parseSnapshotBody(body []byte, headerEpoch uint64, st *coord.AllowanceState) (task []byte, err error) {
	r := snapshotReader{b: body}
	keep := st != nil
	var out coord.AllowanceState
	task = r.bytes()
	out.Epoch = r.uvarint()
	out.Err = r.float()
	out.Now = r.duration()
	out.Ticks = r.uvarint()
	out.Assignments = r.floatMap(keep)
	out.Reclaimed = r.floatMap(keep)
	dead := r.count(1)
	if keep && dead > 0 {
		out.Dead = make([]string, 0, dead)
	}
	for i := 0; i < dead && r.err == nil; i++ {
		m := r.bytes()
		if keep {
			out.Dead = append(out.Dead, string(m))
		}
	}
	out.LastSeen = r.durationMap(keep)
	nAlerts := r.count(minAlertLen)
	if keep && nAlerts > 0 {
		out.Alerts = make([]alerts.Alert, 0, nAlerts)
	}
	for i := 0; i < nAlerts && r.err == nil; i++ {
		var a alerts.Alert
		a.ID = r.uvarint()
		aTask := r.bytes()
		a.Window = r.duration()
		a.Status = r.status()
		a.RaisedAt = r.duration()
		a.LastSeen = r.duration()
		a.ResolvedAt = r.duration()
		a.Occurrences = r.uvarint()
		a.Value = r.float()
		a.Peak = r.float()
		a.Monitors = r.floatMap(keep)
		acked := r.bytes()
		nHist := r.count(minTransitionLen)
		if keep && nHist > 0 {
			a.History = make([]alerts.Transition, 0, nHist)
		}
		for j := 0; j < nHist && r.err == nil; j++ {
			tr := alerts.Transition{At: r.duration(), Status: r.status()}
			actor := r.bytes()
			if keep {
				tr.Actor = string(actor)
				a.History = append(a.History, tr)
			}
		}
		if keep {
			a.Task, a.AckedBy = string(aTask), string(acked)
			out.Alerts = append(out.Alerts, a)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("bytes after the last field")
	}
	if r.err != nil {
		return nil, r.err
	}
	if out.Epoch != headerEpoch {
		return nil, fmt.Errorf("%w: header epoch %d, body epoch %d", ErrFrameMalformed, headerEpoch, out.Epoch)
	}
	if keep {
		out.Task = string(task)
		*st = out
	}
	return task, nil
}

// SnapshotEntry describes one replicated snapshot held for a task.
type SnapshotEntry struct {
	// Task names the task.
	Task string `json:"task"`
	// Epoch is the snapshot's version.
	Epoch uint64 `json:"epoch"`
	// From is the sender that shipped the frame.
	From string `json:"from"`
	// Received is the holder's clock when the frame was applied.
	Received time.Duration `json:"received"`
}

// heldSnapshot is a store's record for one task: what it says about the
// frame, and the frame — checksum verified, body walked — in a buffer of the
// record's own, which the task's next frame is copied over. Both are only
// touched under SnapshotStore.mu.
type heldSnapshot struct {
	SnapshotEntry
	frame []byte
}

// SnapshotStore holds the freshest replicated allowance snapshot per task,
// rejecting stale epochs and corrupt frames. It is the warm-recovery seed:
// when a shard inherits a task after its owner dies, it asks its store for
// the last state the dead owner shipped. It keeps the frames themselves and
// decodes one only when asked for its state — a replica is written every
// few ticks and read, if ever, once.
//
// SnapshotStore is safe for concurrent use.
type SnapshotStore struct {
	tracer *obs.Tracer
	node   string

	applied         *obs.Counter
	rejectedStale   *obs.Counter
	rejectedCorrupt *obs.Counter

	mu      sync.Mutex
	entries map[string]*heldSnapshot
}

// NewSnapshotStore builds an empty store. metrics and tracer are optional;
// node labels traced events with the holder's identity.
func NewSnapshotStore(node string, metrics *obs.Registry, tracer *obs.Tracer) *SnapshotStore {
	s := &SnapshotStore{
		tracer:  tracer,
		node:    node,
		entries: make(map[string]*heldSnapshot),
	}
	s.applied = metrics.Counter("volley_cluster_snapshots_applied_total",
		"Replicated allowance snapshots accepted into the store.")
	s.rejectedStale = metrics.Counter("volley_cluster_snapshots_rejected_total",
		"Replicated allowance snapshots rejected.", "reason", "stale")
	s.rejectedCorrupt = metrics.Counter("volley_cluster_snapshots_rejected_total",
		"Replicated allowance snapshots rejected.", "reason", "corrupt")
	metrics.GaugeFunc("volley_cluster_snapshots_held",
		"Replicated allowance snapshots currently held.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.entries))
		})
	return s
}

// Put applies a frame received from a peer for the task its envelope names,
// at the given clock position. After the checksum, the header epoch is
// compared with the held entry first: a frame not strictly newer — every
// retry and duplicate — is rejected with ErrSnapshotStale before its body
// is read. A fresh frame's body is then walked without being decoded (every
// length, the header/body epoch cross-check, the body's task against the
// envelope's) and the frame is copied over the one held for the task; frame
// itself is only read, and not after Put returns. Frames that fail any
// check are rejected with the decode error. Both kinds of rejection are
// counted and traced against the envelope's task.
func (s *SnapshotStore) Put(task, from string, now time.Duration, frame []byte) (SnapshotEntry, error) {
	var e SnapshotEntry
	epoch, body, err := openSnapshotFrame(frame)
	if err == nil {
		s.mu.Lock()
		held, ok := s.entries[task]
		if ok && epoch <= held.Epoch {
			err = fmt.Errorf("%w: task %q epoch %d, held %d", ErrSnapshotStale, task, epoch, held.Epoch)
		} else if err = checkSnapshotBody(body, epoch, task); err == nil {
			if !ok {
				held = new(heldSnapshot)
				s.entries[task] = held
			}
			e = SnapshotEntry{Task: task, Epoch: epoch, From: from, Received: now}
			held.SnapshotEntry = e
			held.frame = append(held.frame[:0], frame...)
		}
		s.mu.Unlock()
	}
	ev := obs.Event{
		Time: now, Type: obs.EventSnapshotReject,
		Node: s.node, Task: task, Peer: from, Value: float64(epoch),
	}
	switch {
	case err == nil:
		s.applied.Inc()
		ev.Type = obs.EventSnapshotApply
	case errors.Is(err, ErrSnapshotStale):
		s.rejectedStale.Inc()
	default:
		s.rejectedCorrupt.Inc()
		ev.Value = 0 // the epoch of a frame that failed its checks means nothing
	}
	s.tracer.Record(ev)
	return e, err
}

// checkSnapshotBody walks a body and requires it to be about task.
func checkSnapshotBody(body []byte, epoch uint64, task string) error {
	got, err := parseSnapshotBody(body, epoch, nil)
	if err != nil {
		return err
	}
	if string(got) != task {
		return fmt.Errorf("%w: body is for task %q, envelope for %q", ErrFrameMalformed, got, task)
	}
	return nil
}

// Get describes the held snapshot for a task, if any.
func (s *SnapshotStore) Get(task string) (SnapshotEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	held, ok := s.entries[task]
	if !ok {
		return SnapshotEntry{}, false
	}
	return held.SnapshotEntry, true
}

// State decodes the snapshot held for a task, under the store's lock: the
// next Put writes over the frame. A store only holds frames that passed the
// well-formedness walk, so a frame that does not decode is a bug, not bad
// input, and reads as not held.
func (s *SnapshotStore) State(task string) (SnapshotEntry, coord.AllowanceState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	held, ok := s.entries[task]
	if !ok {
		return SnapshotEntry{}, coord.AllowanceState{}, false
	}
	st, err := DecodeSnapshot(held.frame)
	return held.SnapshotEntry, st, err == nil
}

// Drop forgets the held snapshot for a task (after the task is evicted).
func (s *SnapshotStore) Drop(task string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, task)
}

// Entries lists the held snapshots sorted by task name.
func (s *SnapshotStore) Entries() []SnapshotEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SnapshotEntry, 0, len(s.entries))
	for _, held := range s.entries {
		out = append(out, held.SnapshotEntry)
	}
	slices.SortFunc(out, func(a, b SnapshotEntry) int { return strings.Compare(a.Task, b.Task) })
	return out
}

// Len reports how many snapshots are held.
func (s *SnapshotStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
