package cluster

import (
	"testing"

	"volley/internal/coord"
)

func TestReplicatorCadenceAndAck(t *testing.T) {
	r := NewReplicator(ReplicatorConfig{Node: "a", SnapshotEvery: 4, RetryAfter: 2, MaxAttempts: 3})
	r.Track("t1", 0)

	// First ship is staggered inside the period: due somewhere in (0, 4].
	due := -1
	for tick := uint64(1); tick <= 5; tick++ {
		if d := r.Due(tick); len(d) == 1 && d[0] == "t1" {
			due = int(tick)
			break
		}
	}
	if due < 1 || due > 5 {
		t.Fatalf("task never came due, stagger broken")
	}

	if _, err := r.Ship(&coord.AllowanceState{Task: "t1", Epoch: 7}, "b", "addr-b", uint64(due), 0); err != nil {
		t.Fatal(err)
	}
	if r.InFlight() != 1 {
		t.Fatalf("InFlight after ship = %d, want 1", r.InFlight())
	}
	// One in-flight frame per task: not due again while unacked, even past
	// its cadence slot.
	if d := r.Due(uint64(due) + 10); len(d) != 0 {
		t.Errorf("task due with a frame in flight: %v", d)
	}

	// An ack for an older epoch is ignored; the covering epoch clears it.
	if r.Ack("t1", 6) {
		t.Error("ack for older epoch cleared the frame")
	}
	if !r.Ack("t1", 7) {
		t.Error("covering ack did not clear the frame")
	}
	if r.InFlight() != 0 {
		t.Errorf("InFlight after ack = %d", r.InFlight())
	}

	r.Untrack("t1")
	if d := r.Due(uint64(due) + 100); len(d) != 0 {
		t.Errorf("untracked task still due: %v", d)
	}
}

func TestReplicatorRetryBackoffAndAbandon(t *testing.T) {
	r := NewReplicator(ReplicatorConfig{Node: "a", SnapshotEvery: 100, RetryAfter: 2, MaxAttempts: 3})
	r.Track("t1", 0)
	if _, err := r.Ship(&coord.AllowanceState{Task: "t1", Epoch: 1}, "b", "addr-b", 0, 0); err != nil {
		t.Fatal(err)
	}

	// Attempt 1 shipped at tick 0; first retry armed for tick 2.
	if got := r.Resend(1, 0); len(got) != 0 {
		t.Fatalf("resend before timer expiry: %v", got)
	}
	got := r.Resend(2, 0)
	if len(got) != 1 || got[0].Task != "t1" {
		t.Fatalf("first retry = %v, want t1", got)
	}
	// Backoff doubled: attempt 2 at tick 2 armed the next send for 2+2<<1.
	if got := r.Resend(5, 0); len(got) != 0 {
		t.Fatalf("resend before doubled backoff expiry: %v", got)
	}
	got = r.Resend(6, 0)
	if len(got) != 1 {
		t.Fatalf("second retry = %v, want t1", got)
	}

	// Attempts exhausted (MaxAttempts 3): the next expiry abandons instead
	// of resending, and the task becomes due for a fresh ship again.
	if got := r.Resend(100, 0); len(got) != 0 {
		t.Fatalf("resend past MaxAttempts = %v, want abandon", got)
	}
	if r.InFlight() != 0 {
		t.Errorf("InFlight after abandon = %d, want 0", r.InFlight())
	}
	if d := r.Due(200); len(d) != 1 {
		t.Errorf("task not due after abandon: %v", d)
	}
}
