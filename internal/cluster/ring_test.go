package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(0)
	if r.replicas != DefaultReplicas {
		t.Errorf("replicas = %d, want DefaultReplicas", r.replicas)
	}
	if _, ok := r.Place("k"); ok {
		t.Error("Place on empty ring reported ok")
	}
	if r.Add("") {
		t.Error("Add of empty shard ID succeeded")
	}
	if !r.Add("s1") || !r.Add("s2") {
		t.Fatal("Add of fresh shards failed")
	}
	if r.Add("s1") {
		t.Error("duplicate Add reported a membership change")
	}
	if got := r.Epoch(); got != 2 {
		t.Errorf("Epoch = %d after two changes, want 2", got)
	}
	if got := r.Shards(); len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Errorf("Shards = %v, want [s1 s2]", got)
	}
	if !r.Contains("s1") || r.Contains("sX") {
		t.Error("Contains wrong")
	}
	if r.Remove("sX") {
		t.Error("Remove of unknown shard reported a change")
	}
	if !r.Remove("s1") {
		t.Error("Remove of member failed")
	}
	if got := r.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	if got := r.Epoch(); got != 3 {
		t.Errorf("Epoch = %d after three changes, want 3", got)
	}
	if s, ok := r.Place("anything"); !ok || s != "s2" {
		t.Errorf("Place on single-shard ring = %q/%v, want s2", s, ok)
	}
}

// TestRingDeterministicAcrossInsertionOrders: placement is a function of
// the member set alone — forward, reverse and map-iteration insertion
// orders all yield identical rings.
func TestRingDeterministicAcrossInsertionOrders(t *testing.T) {
	shards := []string{"alpha", "beta", "gamma", "delta", "epsilon"}

	build := func(order []string) *Ring {
		r := NewRing(64)
		for _, s := range order {
			r.Add(s)
		}
		return r
	}
	fwd := build(shards)
	rev := build([]string{"epsilon", "delta", "gamma", "beta", "alpha"})
	viaMap := NewRing(64)
	set := make(map[string]bool, len(shards))
	for _, s := range shards {
		set[s] = true
	}
	for s := range set { // map iteration order: randomized by the runtime
		viaMap.Add(s)
	}

	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("task-%d", i)
		a, _ := fwd.Place(key)
		b, _ := rev.Place(key)
		c, _ := viaMap.Place(key)
		if a != b || a != c {
			t.Fatalf("key %q placed on %q/%q/%q across insertion orders", key, a, b, c)
		}
	}
}

// TestRingMinimalMovement: removing one shard moves only that shard's
// keys, adding a shard moves keys only onto the newcomer, and placing a key
// costs no allocation.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(128)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	const keys = 5000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("task-%d", i)
		before[k], _ = r.Place(k)
	}

	const victim = "shard-3"
	r.Remove(victim)
	for k, was := range before {
		now, ok := r.Place(k)
		if !ok {
			t.Fatalf("key %q unplaced after removal", k)
		}
		if was != victim && now != was {
			t.Fatalf("key %q moved %q→%q though %q was removed", k, was, now, victim)
		}
		if was == victim && now == victim {
			t.Fatalf("key %q still on removed shard", k)
		}
	}

	after := make(map[string]string, keys)
	for k := range before {
		after[k], _ = r.Place(k)
	}
	r.Add("shard-new")
	for k, was := range after {
		now, _ := r.Place(k)
		if now != was && now != "shard-new" {
			t.Fatalf("key %q moved %q→%q on join of shard-new", k, was, now)
		}
	}

	// A placement is one hash and one binary search: it allocates nothing.
	if n := testing.AllocsPerRun(1000, func() { r.Place("task-17") }); n != 0 {
		t.Errorf("Place allocates %.1f times per call, want 0", n)
	}
}

// TestRingBalance: with replicated virtual nodes the per-shard load of
// uniform keys stays within a loose factor of even.
func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	const shards, keys = 8, 20000
	for i := 0; i < shards; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	counts := make(map[string]int, shards)
	for i := 0; i < keys; i++ {
		s, _ := r.Place(fmt.Sprintf("key-%d", i))
		counts[s]++
	}
	even := keys / shards
	for s, c := range counts {
		if c < even/3 || c > even*3 {
			t.Errorf("shard %s holds %d keys, even share is %d (imbalance > 3x)", s, c, even)
		}
	}
	if len(counts) != shards {
		t.Errorf("only %d of %d shards received keys", len(counts), shards)
	}
}

// FuzzRing fuzzes the two ring invariants the cluster layer leans on:
// placement is deterministic across insertion orders, and removing the
// shard owning a key moves only that shard's keys.
func FuzzRing(f *testing.F) {
	f.Add("a,b,c", "task-cpu")
	f.Add("s0,s1,s2,s3,s4", "x")
	f.Add("east,west", "latency/p99")
	f.Add("a,a,b", "")
	f.Fuzz(func(t *testing.T, shardCSV, key string) {
		set := make(map[string]bool)
		for _, s := range strings.Split(shardCSV, ",") {
			if s != "" {
				set[s] = true
			}
		}
		if len(set) < 2 {
			t.Skip("need at least two shards")
		}
		sorted := make([]string, 0, len(set))
		for s := range set {
			sorted = append(sorted, s)
		}
		sort.Strings(sorted)

		// Determinism: sorted insertion, reverse insertion and randomized
		// map-iteration insertion must agree on every key.
		fwd, rev, rnd := NewRing(16), NewRing(16), NewRing(16)
		for i, s := range sorted {
			fwd.Add(s)
			rev.Add(sorted[len(sorted)-1-i])
		}
		for s := range set {
			rnd.Add(s)
		}
		keys := []string{key, key + "/1", key + "/2", "probe", shardCSV}
		for _, k := range keys {
			a, aok := fwd.Place(k)
			b, bok := rev.Place(k)
			c, cok := rnd.Place(k)
			if a != b || a != c || !aok || !bok || !cok {
				t.Fatalf("key %q placed on %q/%q/%q across insertion orders", k, a, b, c)
			}
		}

		// Minimal movement: remove the owner of the fuzzed key.
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k], _ = fwd.Place(k)
		}
		victim := before[key]
		fwd.Remove(victim)
		for _, k := range keys {
			now, ok := fwd.Place(k)
			if !ok {
				t.Fatalf("key %q unplaced after removing %q", k, victim)
			}
			if before[k] != victim && now != before[k] {
				t.Fatalf("key %q moved %q→%q though only %q was removed", k, before[k], now, victim)
			}
			if before[k] == victim && now == victim {
				t.Fatalf("key %q still on removed shard %q", k, victim)
			}
		}
	})
}

// BenchmarkRingPlace measures the placement hot path: one hash plus a
// binary search over shards×replicas points, allocation-free.
func BenchmarkRingPlace(b *testing.B) {
	for _, shards := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := NewRing(DefaultReplicas)
			for i := 0; i < shards; i++ {
				r.Add(fmt.Sprintf("shard-%d", i))
			}
			keys := make([]string, 512)
			for i := range keys {
				keys[i] = fmt.Sprintf("task-%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.Place(keys[i&511]); !ok {
					b.Fatal("unplaced")
				}
			}
		})
	}
}

func TestRingSuccessor(t *testing.T) {
	r := NewRing(16)
	shards := []string{"a", "b", "c", "d"}
	for _, s := range shards {
		r.Add(s)
	}

	// Successor(key, skip) must equal Place after Remove(skip) — the shard
	// that would inherit the key if skip crashed — without mutating r.
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("task-%d", i)
		owner, ok := r.Place(key)
		if !ok {
			t.Fatal("unplaced key")
		}
		succ, ok := r.Successor(key, owner)
		if !ok {
			t.Fatalf("no successor for %q skipping %q", key, owner)
		}
		if succ == owner {
			t.Fatalf("successor of %q is its owner %q", key, owner)
		}
		shrunk := NewRing(16)
		for _, s := range shards {
			if s != owner {
				shrunk.Add(s)
			}
		}
		want, _ := shrunk.Place(key)
		if succ != want {
			t.Errorf("Successor(%q, %q) = %q, want Place-after-Remove %q", key, owner, succ, want)
		}
	}
	if r.Len() != len(shards) {
		t.Errorf("Successor mutated the ring: %d members", r.Len())
	}

	// A ring with no shard other than skip has no successor.
	solo := NewRing(16)
	solo.Add("only")
	if _, ok := solo.Successor("k", "only"); ok {
		t.Error("successor exists on a single-shard ring")
	}
	if _, ok := (&Ring{}).Successor("k", "x"); ok {
		t.Error("successor exists on an empty ring")
	}
}
