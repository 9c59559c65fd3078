package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The shard-mode crash/recovery soak: three real volleyd processes over
// real TCP, one killed with SIGKILL, and the survivors must converge and
// re-own its task warm from the replicated allowance snapshot. Gated
// behind VOLLEY_SOAK=1 (`make soak` sets it) so the default `go test`
// sweep stays fast; VOLLEY_SOAK_OUT=<path> additionally writes a
// recovery-time summary JSON for the CI artifact.

// clusterView mirrors the /cluster payload (cluster.NodeStatus). Digest is
// decoded as uint64 — a float64 round trip would lose the high bits.
type clusterView struct {
	ID            string   `json:"id"`
	RingDigest    uint64   `json:"ringDigest"`
	RingMembers   []string `json:"ringMembers"`
	CatalogDigest uint64   `json:"catalogDigest"`
	Owned         []struct {
		Name        string             `json:"name"`
		Assignments map[string]float64 `json:"assignments"`
		Recovery    *struct {
			Warm        bool               `json:"warm"`
			Epoch       uint64             `json:"epoch"`
			From        string             `json:"from"`
			PrevOwner   string             `json:"prevOwner"`
			Assignments map[string]float64 `json:"assignments"`
		} `json:"recovery"`
	} `json:"owned"`
	Snapshots []struct {
		Task        string             `json:"task"`
		Epoch       uint64             `json:"epoch"`
		From        string             `json:"from"`
		Assignments map[string]float64 `json:"assignments"`
	} `json:"snapshots"`
	ColdStarts uint64 `json:"coldStarts"`
	Recoveries uint64 `json:"recoveries"`
}

type soakShard struct {
	id   string
	peer string // inter-shard TCP address
	http string // control-plane address
	cmd  *exec.Cmd
	log  *bytes.Buffer
}

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		l.Close()
	}
	return addrs
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

func TestShardSoakKill9(t *testing.T) {
	if os.Getenv("VOLLEY_SOAK") == "" {
		t.Skip("process-level soak; run via `make soak` (VOLLEY_SOAK=1)")
	}

	bin := filepath.Join(t.TempDir(), "volleyd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build volleyd: %v\n%s", err, out)
	}

	ports := freePorts(t, 6)
	shards := []*soakShard{
		{id: "a", peer: ports[0], http: ports[3]},
		{id: "b", peer: ports[1], http: ports[4]},
		{id: "c", peer: ports[2], http: ports[5]},
	}
	for _, s := range shards {
		var peers []string
		for _, o := range shards {
			if o.id != s.id {
				peers = append(peers, o.id+"="+o.peer)
			}
		}
		s.log = &bytes.Buffer{}
		s.cmd = exec.Command(bin,
			"-shard-id", s.id,
			"-peer-listen", s.peer,
			"-peers", strings.Join(peers, ","),
			"-listen", s.http,
			"-interval", "25ms",
			"-beacon-every", "2",
			"-suspect-after", "8",
			"-dead-after", "16",
			"-snapshot-every", "4",
		)
		s.cmd.Stdout = s.log
		s.cmd.Stderr = s.log
		if err := s.cmd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range shards {
			if s.cmd.Process != nil {
				_ = s.cmd.Process.Kill()
				_ = s.cmd.Wait()
			}
			if t.Failed() {
				t.Logf("--- shard %s log ---\n%s", s.id, s.log.String())
			}
		}
	})

	view := func(s *soakShard) (clusterView, error) {
		var v clusterView
		err := getJSON("http://"+s.http+"/cluster", &v)
		return v, err
	}

	// Phase 1: membership converges with no external coordination —
	// every shard sees three ring members and computes the same digest.
	waitFor(t, 15*time.Second, "3-shard convergence", func() bool {
		var digests []uint64
		for _, s := range shards {
			v, err := view(s)
			if err != nil || len(v.RingMembers) != 3 {
				return false
			}
			digests = append(digests, v.RingDigest)
		}
		return digests[0] == digests[1] && digests[1] == digests[2]
	})

	// Phase 2: admit a task on shard a; the catalog gossips and exactly
	// one shard (wherever the ring places it) becomes its owner.
	task := map[string]any{
		"name": "soak", "threshold": 100.0, "err": 0.05,
		"monitors": []map[string]string{
			{"id": "m1", "source": "cmd:echo 1"},
			{"id": "m2", "source": "cmd:echo 2"},
		},
	}
	body, _ := json.Marshal(task)
	resp, err := http.Post("http://"+shards[0].http+"/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: status %d", resp.StatusCode)
	}

	var owner *soakShard
	waitFor(t, 15*time.Second, "task placement", func() bool {
		owners := 0
		for _, s := range shards {
			v, err := view(s)
			if err != nil {
				return false
			}
			for _, o := range v.Owned {
				if o.Name == "soak" {
					owners++
					owner = s
				}
			}
		}
		return owners == 1
	})

	// Phase 2b: the catalog digests agree, and from then on the gossip
	// carries no rows — only the beacons themselves keep the byte counter
	// moving.
	waitFor(t, 15*time.Second, "catalog digest agreement", func() bool {
		var digests []uint64
		for _, s := range shards {
			v, err := view(s)
			if err != nil {
				return false
			}
			digests = append(digests, v.CatalogDigest)
		}
		return digests[0] != 0 && digests[0] == digests[1] && digests[1] == digests[2]
	})
	gossip := func(s *soakShard) (rows, beaconBytes float64) {
		code, body := httpGet(t, "http://"+s.http+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics on %s: status %d", s.id, code)
		}
		return promValue(t, body, "volley_cluster_catalog_rows_sent_total"),
			promValue(t, body, "volley_cluster_beacon_bytes_total")
	}
	// A few beacon periods for every shard to hear every agreeing digest.
	time.Sleep(20 * 25 * time.Millisecond)
	var rowsBefore, bytesBefore [3]float64
	for i, s := range shards {
		rowsBefore[i], bytesBefore[i] = gossip(s)
	}
	time.Sleep(40 * 25 * time.Millisecond)
	for i, s := range shards {
		rows, beaconBytes := gossip(s)
		if rows != rowsBefore[i] {
			t.Errorf("shard %s sent %v catalog rows after the digests agreed, want 0", s.id, rows-rowsBefore[i])
		}
		if beaconBytes <= bytesBefore[i] {
			t.Errorf("shard %s beacon bytes stood still at %v: beacons stopped", s.id, beaconBytes)
		}
	}

	// Phase 3: override the allowance to an unequal split so warm recovery
	// is distinguishable from cold-start defaults (an even split).
	want := map[string]float64{"soak/mon/m1": 0.04, "soak/mon/m2": 0.01}
	patch, _ := json.Marshal(map[string]any{"assignments": want})
	req, _ := http.NewRequest(http.MethodPatch,
		"http://"+owner.http+"/tasks/soak/allowance", bytes.NewReader(patch))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("allowance patch: status %d", resp.StatusCode)
	}

	// Phase 4: the override replicates — some survivor-to-be holds a
	// snapshot frame whose assignments carry the unequal split.
	var holder *soakShard
	var shipped map[string]float64
	waitFor(t, 15*time.Second, "snapshot replication of the override", func() bool {
		for _, s := range shards {
			if s == owner {
				continue
			}
			v, err := view(s)
			if err != nil {
				continue
			}
			for _, snap := range v.Snapshots {
				if snap.Task != "soak" || snap.Epoch == 0 {
					continue
				}
				if abs(snap.Assignments["soak/mon/m1"]-want["soak/mon/m1"]) < 1e-9 &&
					abs(snap.Assignments["soak/mon/m2"]-want["soak/mon/m2"]) < 1e-9 {
					holder, shipped = s, snap.Assignments
					return true
				}
			}
		}
		return false
	})

	// Phase 5: kill -9 the owner. No shutdown handler runs — whatever was
	// not replicated is gone.
	killed := owner.id
	killedAt := time.Now()
	if err := owner.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = owner.cmd.Wait()

	var survivors []*soakShard
	for _, s := range shards {
		if s != owner {
			survivors = append(survivors, s)
		}
	}

	// Phase 6: within the liveness horizon the survivors declare the owner
	// dead and the snapshot holder re-admits the task warm.
	var recovered clusterView
	var rec *struct {
		Warm        bool               `json:"warm"`
		Epoch       uint64             `json:"epoch"`
		From        string             `json:"from"`
		PrevOwner   string             `json:"prevOwner"`
		Assignments map[string]float64 `json:"assignments"`
	}
	waitFor(t, 20*time.Second, "warm takeover by a survivor", func() bool {
		owners := 0
		for _, s := range survivors {
			v, err := view(s)
			if err != nil {
				return false
			}
			for _, o := range v.Owned {
				if o.Name == "soak" && o.Recovery != nil && o.Recovery.Warm {
					owners++
					recovered, rec = v, o.Recovery
				}
			}
		}
		return owners == 1
	})
	recoveryTime := time.Since(killedAt)
	if rec.PrevOwner != killed {
		t.Errorf("recovery prev owner = %q, want %q", rec.PrevOwner, killed)
	}
	if rec.Epoch == 0 {
		t.Error("recovery epoch = 0, want the shipped snapshot's epoch")
	}
	for m, w := range shipped {
		if abs(rec.Assignments[m]-w) > 1e-9 {
			t.Errorf("recovered allowance[%s] = %v, want last shipped %v (cold default would be even)",
				m, rec.Assignments[m], w)
		}
	}
	if recovered.ColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0", recovered.ColdStarts)
	}
	if recovered.ID != holder.id {
		t.Logf("note: recovered on %s, snapshot first seen on %s (both legal holders)", recovered.ID, holder.id)
	}

	// Phase 7: the two survivors converge to identical two-member rings.
	waitFor(t, 15*time.Second, "survivor ring convergence", func() bool {
		va, errA := view(survivors[0])
		vb, errB := view(survivors[1])
		return errA == nil && errB == nil &&
			len(va.RingMembers) == 2 && len(vb.RingMembers) == 2 &&
			va.RingDigest == vb.RingDigest
	})

	t.Logf("warm recovery on %s in %v (epoch %d, from %s)", recovered.ID, recoveryTime, rec.Epoch, rec.From)

	if out := os.Getenv("VOLLEY_SOAK_OUT"); out != "" {
		summary, _ := json.MarshalIndent(map[string]any{
			"killed":           killed,
			"new_owner":        recovered.ID,
			"warm":             true,
			"snapshot_epoch":   rec.Epoch,
			"recovery_seconds": recoveryTime.Seconds(),
			"assignments":      rec.Assignments,
			"cold_starts":      recovered.ColdStarts,
			"recoveries":       recovered.Recoveries,
		}, "", "  ")
		if err := os.WriteFile(out, append(summary, '\n'), 0o644); err != nil {
			t.Errorf("write soak summary: %v", err)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestParsePeerList(t *testing.T) {
	peers, err := parsePeerList(" a=127.0.0.1:7001 , b=127.0.0.1:7002,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].ID != "a" || peers[1].Addr != "127.0.0.1:7002" {
		t.Errorf("parsePeerList = %+v", peers)
	}
	if got, err := parsePeerList(""); err != nil || got != nil {
		t.Errorf("empty list = %v, %v", got, err)
	}
	for _, bad := range []string{"a", "=addr", "a="} {
		if _, err := parsePeerList(bad); err == nil {
			t.Errorf("parsePeerList(%q) succeeded, want error", bad)
		}
	}
}
