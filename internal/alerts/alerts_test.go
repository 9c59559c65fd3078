package alerts

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"volley/internal/alloctest"
	"volley/internal/obs"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// TestLifecycle drives one episode through OPEN → ACKED → RESOLVED and
// checks the bounded history records every hop.
func TestLifecycle(t *testing.T) {
	r := New(Config{Node: "n0"})
	id, opened := r.Raise("cpu", sec(1), 120)
	if !opened || id == 0 {
		t.Fatalf("Raise = (%d, %v), want fresh alert", id, opened)
	}
	if err := r.Ack(id, sec(2), "alice"); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if err := r.Resolve(id, sec(3), "alice"); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	a, ok := r.Get(id)
	if !ok {
		t.Fatal("resolved alert dropped from Get")
	}
	if a.Status != StatusResolved || a.AckedBy != "alice" || a.ResolvedAt != sec(3) {
		t.Fatalf("alert after resolve = %+v", a)
	}
	want := []Status{StatusOpen, StatusAcked, StatusResolved}
	if len(a.History) != len(want) {
		t.Fatalf("history %v, want %d transitions", a.History, len(want))
	}
	for i, tr := range a.History {
		if tr.Status != want[i] {
			t.Fatalf("history[%d] = %v, want %v", i, tr.Status, want[i])
		}
	}
}

// TestSustainedViolationDedups is the tentpole acceptance case: a
// violation sustained for 1000+ polls yields exactly one OPEN alert, with
// the suppressed re-raises accounted in volley_alerts_deduped_total and
// the occurrence counter.
func TestSustainedViolationDedups(t *testing.T) {
	m := obs.NewRegistry()
	r := New(Config{Node: "n0", Metrics: m})
	const ticks = 1500
	firstID, _ := r.Raise("cpu", 0, 100)
	for i := 1; i < ticks; i++ {
		id, opened := r.Raise("cpu", sec(i), 100+float64(i))
		if opened || id != firstID {
			t.Fatalf("tick %d: Raise = (%d, %v), want dedup into %d", i, id, opened, firstID)
		}
	}
	open := 0
	for _, a := range r.List() {
		if a.Status == StatusOpen {
			open++
			if a.Occurrences != ticks {
				t.Fatalf("occurrences = %d, want %d", a.Occurrences, ticks)
			}
			if a.LastSeen != sec(ticks-1) {
				t.Fatalf("last_seen = %v, want %v", a.LastSeen, sec(ticks-1))
			}
			if a.Peak != 100+float64(ticks-1) {
				t.Fatalf("peak = %v", a.Peak)
			}
		}
	}
	if open != 1 {
		t.Fatalf("open alerts = %d, want exactly 1", open)
	}
	if got := m.Counter("volley_alerts_raised_total", "").Value(); got != 1 {
		t.Fatalf("raised_total = %d, want 1", got)
	}
	if got := m.Counter("volley_alerts_deduped_total", "").Value(); got != ticks-1 {
		t.Fatalf("deduped_total = %d, want %d", got, ticks-1)
	}
}

// TestDedupFastPathAllocs guards the steady-state hot path: re-raising
// into a live alert and refreshing a known monitor's context must not
// allocate.
func TestDedupFastPathAllocs(t *testing.T) {
	r := New(Config{Node: "n0", Metrics: obs.NewRegistry()})
	r.Raise("cpu", 0, 100)
	r.ObserveLocal("cpu", "m0", 0, 50)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		r.Raise("cpu", sec(i), 100)
		r.ObserveLocal("cpu", "m0", sec(i), 50)
	}); n != 0 {
		t.Fatalf("dedup fast path allocates %.1f per run, want 0", n)
	}
}

// TestFirstEpisodeAllocsWhatItHolds: a task's first episode — one monitor's
// local violation, then the raise that opens the alert — allocates the
// alert, its history and a monitors map sized by the one entry it holds, not
// by MaxMonitors. Measured on x86-64 with Go 1.24: 432 B, of which the map
// is 244 B; sized for MaxMonitors (16) the map alone was 972 B and the
// episode 1 160 B. The bound leaves 25 % of headroom over 432 B.
func TestFirstEpisodeAllocsWhatItHolds(t *testing.T) {
	const bound = 540
	var r *Registry
	least, _ := alloctest.Least(20, func() {
		r = New(Config{Node: "n0", Metrics: obs.NewRegistry()})
		// Another task's episode first, so the registry's own maps have
		// room and what is measured is the episode alone.
		r.ObserveLocal("warm", "warm/mon/m0", 0, 1)
		r.Raise("warm", 0, 1)
		r.Clear("warm", sec(1), 0)
	}, func() {
		r.ObserveLocal("cpu", "cpu/mon/m0", sec(2), 50)
		r.Raise("cpu", sec(2), 100)
	})
	t.Logf("a first episode allocates %d B", least)
	if least > bound {
		t.Errorf("a first episode allocates %d B, want ≤ %d", least, bound)
	}
}

// TestClearAutoResolves: a completed poll that does not confirm the
// violation ends the episode with actor "auto" and feeds time-to-resolve.
func TestClearAutoResolves(t *testing.T) {
	m := obs.NewRegistry()
	r := New(Config{Node: "n0", Metrics: m})
	id, _ := r.Raise("cpu", sec(1), 120)
	r.Clear("cpu", sec(11), 80)
	a, _ := r.Get(id)
	if a.Status != StatusResolved || a.Value != 80 {
		t.Fatalf("after Clear: %+v", a)
	}
	if last := a.History[len(a.History)-1]; last.Actor != "auto" {
		t.Fatalf("resolve actor = %q, want auto", last.Actor)
	}
	h := m.Histogram("volley_alerts_time_to_resolve_seconds", "", TTRBuckets)
	if h.Count() != 1 || h.Sum() != 10 {
		t.Fatalf("ttr count=%d sum=%v, want 1 observation of 10s", h.Count(), h.Sum())
	}
	// Clear with no live alert is a no-op.
	r.Clear("cpu", sec(12), 70)
	if got := m.Counter("volley_alerts_resolved_total", "").Value(); got != 1 {
		t.Fatalf("resolved_total = %d, want 1", got)
	}
}

// TestTTLExpiry: a live alert that stops being re-raised is retired by
// Tick after the TTL, with actor "ttl".
func TestTTLExpiry(t *testing.T) {
	m := obs.NewRegistry()
	r := New(Config{Node: "n0", TTL: sec(5), Metrics: m})
	id, _ := r.Raise("cpu", sec(1), 120)
	if n := r.Tick(sec(5)); n != 0 {
		t.Fatalf("expired %d alerts before TTL", n)
	}
	if n := r.Tick(sec(6)); n != 1 {
		t.Fatalf("Tick at TTL expired %d, want 1", n)
	}
	a, _ := r.Get(id)
	if a.Status != StatusExpired {
		t.Fatalf("status = %v, want expired", a.Status)
	}
	if last := a.History[len(a.History)-1]; last.Actor != "ttl" {
		t.Fatalf("expiry actor = %q", last.Actor)
	}
	if got := m.Counter("volley_alerts_expired_total", "").Value(); got != 1 {
		t.Fatalf("expired_total = %d", got)
	}
	// A fresh raise after expiry opens a new episode.
	id2, opened := r.Raise("cpu", sec(10), 130)
	if !opened || id2 == id {
		t.Fatalf("raise after expiry = (%d, %v), want new alert", id2, opened)
	}
}

// TestLifecycleErrors covers the operator-API failure modes.
func TestLifecycleErrors(t *testing.T) {
	r := New(Config{Node: "n0"})
	if err := r.Ack(42, 0, "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Ack missing = %v", err)
	}
	id, _ := r.Raise("cpu", sec(1), 120)
	if err := r.Ack(id, sec(2), "a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Ack(id, sec(3), "b"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double ack = %v", err)
	}
	if err := r.Resolve(id, sec(4), ""); err != nil {
		t.Fatal(err)
	}
	if err := r.Resolve(id, sec(5), "x"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double resolve = %v", err)
	}
	a, _ := r.Get(id)
	if last := a.History[len(a.History)-1]; last.Actor != "operator" {
		t.Fatalf("empty actor should default to operator, got %q", last.Actor)
	}
}

// TestObserveLocalSeedsMonitors: local violations reported before the
// global poll confirm become the opening alert's monitor context, bounded
// by MaxMonitors.
func TestObserveLocalSeedsMonitors(t *testing.T) {
	r := New(Config{Node: "n0", MaxMonitors: 2})
	r.ObserveLocal("cpu", "m0", sec(1), 40)
	r.ObserveLocal("cpu", "m1", sec(1), 50)
	r.ObserveLocal("cpu", "m2", sec(1), 60) // over the bound, dropped
	r.ObserveLocal("cpu", "m0", sec(2), 45) // known key still updates
	id, _ := r.Raise("cpu", sec(3), 95)
	a, _ := r.Get(id)
	if len(a.Monitors) != 2 || a.Monitors["m0"] != 45 || a.Monitors["m1"] != 50 {
		t.Fatalf("monitors = %v", a.Monitors)
	}
	// Post-open observations land on the live alert.
	r.ObserveLocal("cpu", "m1", sec(4), 55)
	a, _ = r.Get(id)
	if a.Monitors["m1"] != 55 {
		t.Fatalf("live monitor update lost: %v", a.Monitors)
	}
}

// TestExportImportHandoff: an exported open alert resumes on the importing
// registry under a fresh ID with a handoff transition; re-imports merge
// idempotently; a fresher local episode wins over a stale import.
func TestExportImportHandoff(t *testing.T) {
	m1, m2 := obs.NewRegistry(), obs.NewRegistry()
	src := New(Config{Node: "a", Metrics: m1})
	dst := New(Config{Node: "b", Metrics: m2})
	srcID, _ := src.Raise("cpu", sec(1), 120)
	src.Raise("cpu", sec(2), 140)
	src.ObserveLocal("cpu", "m0", sec(2), 70)

	frame := src.ExportOpen("cpu")
	if len(frame) != 1 {
		t.Fatalf("export = %v", frame)
	}
	dst.ImportOpen("cpu", frame, sec(3), "a")
	got := dst.ExportOpen("cpu")
	if len(got) != 1 {
		t.Fatal("import did not install the alert")
	}
	a := got[0]
	if a.ID == srcID && a.ID == frame[0].ID {
		t.Log("IDs may collide across registries; only window identity matters")
	}
	if a.Window != sec(1) || a.Occurrences != 2 || a.Peak != 140 || a.Monitors["m0"] != 70 {
		t.Fatalf("imported alert = %+v", a)
	}
	if last := a.History[len(a.History)-1]; !strings.HasPrefix(last.Actor, "handoff:") {
		t.Fatalf("handoff transition actor = %q", last.Actor)
	}

	// Idempotent: re-importing the same frame changes nothing.
	dst.ImportOpen("cpu", frame, sec(4), "a")
	again := dst.ExportOpen("cpu")
	if len(again) != 1 || again[0].Occurrences != 2 || again[0].ID != a.ID {
		t.Fatalf("re-import mutated the alert: %+v", again)
	}

	// A merge from a fresher copy of the SAME window advances the counters.
	frame[0].LastSeen, frame[0].Occurrences, frame[0].Value = sec(9), 7, 150
	dst.ImportOpen("cpu", frame, sec(10), "a")
	merged := dst.ExportOpen("cpu")[0]
	if merged.Occurrences != 7 || merged.LastSeen != sec(9) || merged.Value != 150 {
		t.Fatalf("merge = %+v", merged)
	}

	// A different-window import loses to the live local episode.
	stale := []Alert{{Task: "cpu", Window: sec(99), Status: StatusOpen, LastSeen: sec(99), Occurrences: 1}}
	before := m2.Counter("volley_alerts_deduped_total", "").Value()
	dst.ImportOpen("cpu", stale, sec(11), "c")
	if dst.ExportOpen("cpu")[0].Window != sec(1) {
		t.Fatal("stale import displaced the live episode")
	}
	if got := m2.Counter("volley_alerts_deduped_total", "").Value(); got != before+1 {
		t.Fatalf("deduped_total = %d, want %d", got, before+1)
	}
}

// TestForgetVsDropTask: Forget silently discards (graceful handoff — the
// episode moved, it did not end); DropTask resolves with actor "evict".
func TestForgetVsDropTask(t *testing.T) {
	m := obs.NewRegistry()
	r := New(Config{Node: "n0", Metrics: m})
	id, _ := r.Raise("cpu", sec(1), 120)
	r.Forget("cpu")
	if _, ok := r.Get(id); ok {
		t.Fatal("Forget left the alert reachable")
	}
	if got := m.Counter("volley_alerts_resolved_total", "").Value(); got != 0 {
		t.Fatalf("Forget resolved the alert (resolved_total = %d)", got)
	}

	id2, _ := r.Raise("mem", sec(2), 50)
	r.DropTask("mem", sec(3))
	a, ok := r.Get(id2)
	if !ok || a.Status != StatusResolved {
		t.Fatalf("DropTask: %+v ok=%v", a, ok)
	}
	if last := a.History[len(a.History)-1]; last.Actor != "evict" {
		t.Fatalf("evict actor = %q", last.Actor)
	}
}

// TestLost counts cold-started tasks and writes a history row.
func TestLost(t *testing.T) {
	var buf bytes.Buffer
	m := obs.NewRegistry()
	r := New(Config{Node: "n0", Metrics: m, History: &buf})
	r.Lost("cpu", sec(5), "crashed-shard")
	if got := m.Counter("volley_alerts_lost_total", "").Value(); got != 1 {
		t.Fatalf("lost_total = %d", got)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("history row: %v", err)
	}
	if rec["status"] != "lost" || rec["actor"] != "crashed-shard" {
		t.Fatalf("lost row = %v", rec)
	}
}

// TestHistorySinkReplaysSequence: the JSONL sink replays the full status
// sequence of an episode in order.
func TestHistorySinkReplaysSequence(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Node: "n0", History: &buf})
	id, _ := r.Raise("cpu", sec(1), 120)
	r.Raise("cpu", sec(2), 125) // dedup: no history row
	if err := r.Ack(id, sec(3), "alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.Resolve(id, sec(4), "alice"); err != nil {
		t.Fatal(err)
	}
	var seq []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec struct {
			Task   string `json:"task"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL row %q: %v", sc.Text(), err)
		}
		if rec.Task != "cpu" {
			t.Fatalf("row task = %q", rec.Task)
		}
		seq = append(seq, rec.Status)
	}
	want := []string{"open", "acked", "resolved"}
	if len(seq) != len(want) {
		t.Fatalf("history rows = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("history rows = %v, want %v", seq, want)
		}
	}
	if r.SinkErr() != nil {
		t.Fatalf("sink error: %v", r.SinkErr())
	}
}

// errWriter fails after the first write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestSinkErrorDisablesSink: the first write error latches and disables
// the sink instead of failing lifecycle operations.
func TestSinkErrorDisablesSink(t *testing.T) {
	r := New(Config{Node: "n0", History: &errWriter{}})
	id, _ := r.Raise("cpu", sec(1), 120)
	if err := r.Ack(id, sec(2), "a"); err != nil {
		t.Fatalf("Ack must survive sink failure: %v", err)
	}
	if err := r.Resolve(id, sec(3), "a"); err != nil {
		t.Fatalf("Resolve must survive sink failure: %v", err)
	}
	if r.SinkErr() == nil {
		t.Fatal("sink error not reported")
	}
}

// TestBoundedHistoryAndRetention: per-alert history and the closed ring
// are bounded; evicted closed alerts leave Get.
func TestBoundedHistoryAndRetention(t *testing.T) {
	r := New(Config{Node: "n0", MaxHistory: 2, MaxResolved: 2})
	id, _ := r.Raise("cpu", sec(1), 1)
	_ = r.Ack(id, sec(2), "a")
	_ = r.Resolve(id, sec(3), "a") // 3 transitions into a 2-slot history
	a, _ := r.Get(id)
	if len(a.History) != 2 {
		t.Fatalf("history len = %d, want bound 2", len(a.History))
	}
	if a.History[0].Status != StatusAcked || a.History[1].Status != StatusResolved {
		t.Fatalf("history kept wrong end: %v", a.History)
	}

	ids := []uint64{id}
	for i, task := range []string{"t1", "t2"} {
		nid, _ := r.Raise(task, sec(10+i), 1)
		r.DropTask(task, sec(20+i))
		ids = append(ids, nid)
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("oldest closed alert not evicted at MaxResolved")
	}
	if _, ok := r.Get(ids[2]); !ok {
		t.Fatal("newest closed alert evicted")
	}
}

// TestListOrder: live alerts first (ascending ID), then closed.
func TestListOrder(t *testing.T) {
	r := New(Config{Node: "n0"})
	a1, _ := r.Raise("t1", sec(1), 1)
	a2, _ := r.Raise("t2", sec(2), 1)
	r.DropTask("t1", sec(3))
	a3, _ := r.Raise("t3", sec(4), 1)
	got := r.List()
	if len(got) != 3 {
		t.Fatalf("List len = %d", len(got))
	}
	if got[0].ID != a2 || got[1].ID != a3 || got[2].ID != a1 {
		t.Fatalf("List order = [%d %d %d], want live [%d %d] then closed [%d]",
			got[0].ID, got[1].ID, got[2].ID, a2, a3, a1)
	}
}

// TestStatusJSONRoundTrip: statuses marshal by name and parse back, plus
// numeric fallback.
func TestStatusJSONRoundTrip(t *testing.T) {
	for _, st := range []Status{StatusOpen, StatusAcked, StatusResolved, StatusExpired} {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back Status
		if err := json.Unmarshal(b, &back); err != nil || back != st {
			t.Fatalf("round trip %v → %s → %v (%v)", st, b, back, err)
		}
	}
	var n Status
	if err := json.Unmarshal([]byte("2"), &n); err != nil || n != StatusAcked {
		t.Fatalf("numeric fallback = %v (%v)", n, err)
	}
	var bad Status
	if err := json.Unmarshal([]byte(`"nope"`), &bad); err == nil {
		t.Fatal("unknown status name accepted")
	}
}

// TestNilRegistry: every method is a safe no-op on nil, matching the obs
// package's nil-safety contract.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if id, opened := r.Raise("t", 0, 1); id != 0 || opened {
		t.Fatal("nil Raise")
	}
	r.Clear("t", 0, 1)
	r.ObserveLocal("t", "m", 0, 1)
	r.Tick(0)
	r.ImportOpen("t", []Alert{{Task: "t", Status: StatusOpen}}, 0, "p")
	r.Lost("t", 0, "p")
	r.Forget("t")
	r.DropTask("t", 0)
	if got := r.ExportOpen("t"); got != nil {
		t.Fatal("nil ExportOpen")
	}
	if got := r.List(); got != nil {
		t.Fatal("nil List")
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil Get")
	}
	if err := r.Ack(1, 0, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("nil Ack")
	}
	if err := r.Resolve(1, 0, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("nil Resolve")
	}
	if r.SinkErr() != nil {
		t.Fatal("nil SinkErr")
	}
}

// TestMetricsGauges: the open/acked gauge funcs track live status counts
// through the registered metrics registry.
func TestMetricsGauges(t *testing.T) {
	m := obs.NewRegistry()
	r := New(Config{Node: "n0", Metrics: m})
	id, _ := r.Raise("t1", sec(1), 1)
	r.Raise("t2", sec(2), 1)
	_ = r.Ack(id, sec(3), "a")
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{"volley_alerts_open 1", "volley_alerts_acked 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

// TestNonFiniteValueEncodesAsNull: an alert whose polled total is not finite
// (a sum that overflowed) encodes with a null value and peak, in the list
// GET /alerts serves and in the history sink, where encoding/json refused
// it; a finite alert encodes as its fields say.
func TestNonFiniteValueEncodesAsNull(t *testing.T) {
	var hist bytes.Buffer
	r := New(Config{Node: "n0", History: &hist})
	r.Raise("finite", sec(1), 12.5)
	r.Raise("inf", sec(1), math.Inf(1))
	r.Raise("nan", sec(2), math.NaN())
	if err := r.SinkErr(); err != nil {
		t.Fatalf("history sink: %v", err)
	}
	list, err := json.Marshal(r.List())
	if err != nil {
		t.Fatalf("the alert list does not encode: %v", err)
	}
	var decoded []struct {
		Task        string
		Value, Peak *float64
	}
	if err := json.Unmarshal(list, &decoded); err != nil || len(decoded) != 3 {
		t.Fatalf("list %s (%v)", list, err)
	}
	for _, a := range decoded {
		if finite := a.Task == "finite"; finite != (a.Value != nil) || finite != (a.Peak != nil) {
			t.Errorf("%s: value %v, peak %v in %s", a.Task, a.Value, a.Peak, list)
		}
	}
	rows := strings.Split(strings.TrimSpace(hist.String()), "\n")
	if len(rows) != 3 || !strings.Contains(rows[0], `"value":12.5`) ||
		!strings.Contains(rows[1], `"value":null`) || !strings.Contains(rows[2], `"value":null`) {
		t.Errorf("history rows:\n%s", hist.String())
	}
}
