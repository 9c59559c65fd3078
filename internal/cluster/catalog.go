package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"

	"volley/internal/transport"
)

// The gossiped task catalog of a Node: its rows, the digest that tells two
// shards whether their catalogs agree, and the beacons that carry both.

// CatalogRecord is one gossiped task-catalog row: the spec every shard
// needs for placement, the opaque host spec for whoever wins ownership,
// and a version so concurrent edits merge deterministically (higher
// version wins; removals are tombstones so they win over stale adds).
type CatalogRecord struct {
	Spec     TaskSpec `json:"spec"`
	HostSpec []byte   `json:"hostSpec,omitempty"`
	Version  uint64   `json:"version"`
	Deleted  bool     `json:"deleted,omitempty"`
}

// catalogBody is the part of a catalog row that never changes once the
// task is admitted. It is encoded once, by the shard that admitted the
// task, and carried verbatim from then on.
type catalogBody struct {
	Spec     TaskSpec `json:"spec"`
	HostSpec []byte   `json:"hostSpec,omitempty"`
}

// catalogRow is a catalog row as a node holds it.
type catalogRow struct {
	CatalogRecord
	// body is the row's catalogBody as JSON: what rides in a beacon, and —
	// hashed into content — what stands for the spec in the catalog digest
	// and in the equal-version tie-break. Because the bytes travel as they
	// are, every shard hashes the same bytes for the same row.
	body    []byte
	content uint64
}

func rowName(r *catalogRow) string { return r.Spec.Name }

var contentTable = crc64.MakeTable(crc64.ECMA)

func contentHash(body []byte) uint64 { return mix64(crc64.Checksum(body, contentTable)) }

// digestTerm is the row's contribution to the catalog digest, which is the
// XOR of the terms of every row, tombstones included: order-independent,
// and maintained by XORing a row's old term out and its new term in.
func (r *catalogRow) digestTerm() uint64 {
	const golden = 0x9e3779b97f4a7c15
	h := mix64(fnv1a(r.Spec.Name) ^ r.Version*golden)
	if r.Deleted {
		h = mix64(h + golden)
	}
	return mix64(h ^ r.content)
}

// supersedes reports whether a gossiped row replaces the held one: the
// higher version does; at equal versions — two shards changed the same
// name in the same round — a tombstone beats a live row and otherwise the
// higher content hash wins, so both shards pick the same row whichever
// order they hear of them in.
func supersedes(version uint64, deleted bool, body []byte, held *catalogRow) bool {
	if version != held.Version {
		return version > held.Version
	}
	if deleted != held.Deleted {
		return deleted
	}
	return contentHash(body) > held.content
}

// A KindShardBeacon payload is binary, built from the transport codec's
// field primitives:
//
//	offset  size  field
//	0       1     beacon version (beaconVersion)
//	1       8     catalog digest, little-endian
//	9       8     catalog high-water version, little-endian
//	17            member table (Membership.AppendTable)
//	              catalog rows: uvarint count, then per row the task name
//	              (string), version (uvarint), deleted (one byte) and the
//	              row's JSON body (length-prefixed bytes)
//
// The digest and the high-water are fixed-width so that the beacon of a
// converged fleet — zero rows — is the same length whatever the catalog
// holds.
const (
	beaconVersion   = 2
	beaconPrefixLen = 1 + 8 + 8
)

// peerCatalog is what a peer's last beacon said about its catalog.
type peerCatalog struct {
	digest  uint64
	version uint64
}

// Admit enters a task into the gossiped catalog. Ownership is decided by
// the ring on the next Tick of whichever shard the ring places it on; the
// spec reaches the other shards with the next beacons. hostSpec travels
// with the spec for the owner's TaskHost.
func (n *Node) Admit(spec TaskSpec, hostSpec []byte) error {
	if spec.Name == "" {
		return fmt.Errorf("cluster: admit needs a task name")
	}
	if len(spec.Monitors) == 0 {
		return fmt.Errorf("cluster: task %q needs at least one monitor", spec.Name)
	}
	body, err := json.Marshal(catalogBody{Spec: spec, HostSpec: hostSpec})
	if err != nil {
		return fmt.Errorf("cluster: task %q: encode catalog row: %w", spec.Name, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if rec, ok := n.catalog[spec.Name]; ok && !rec.Deleted {
		return fmt.Errorf("cluster: task %q already admitted", spec.Name)
	}
	n.putRowLocked(CatalogRecord{
		Spec: spec, HostSpec: hostSpec, Version: n.catalogVersion + 1,
	}, body)
	return nil
}

// Remove tombstones a task; every shard evicts it as the tombstone
// spreads.
func (n *Node) Remove(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	rec, ok := n.catalog[name]
	if !ok || rec.Deleted {
		return fmt.Errorf("cluster: task %q not admitted", name)
	}
	tomb := rec.CatalogRecord
	tomb.Deleted, tomb.Version = true, n.catalogVersion+1
	n.putRowLocked(tomb, rec.body)
	return nil
}

// beaconLocked appends this tick's beacons. Every beacon carries the
// member table and this shard's catalog digest and high-water version;
// catalog rows ride along only for a peer whose last-heard digest differs:
// the rows newer than that peer's high-water, or — when there are none,
// because both shards edited at the same version, or the peer was never
// heard from — the whole catalog. A fleet whose catalogs agree therefore
// exchanges the same few dozen bytes per beacon whatever the catalog holds,
// and any loss, restart or partition falls back to the full exchange.
func (n *Node) beaconLocked(sends []outMsg, due []Member) []outMsg {
	if len(due) == 0 {
		return sends
	}
	// One scratch holds every payload of the tick, end to end: first the
	// rowless beacon, shared by every peer that gets one, then for each peer
	// that gets rows a copy of the head and its rows. The sends borrow their
	// stretch of it until Tick has made them.
	b := append(n.beaconBuf[:0], beaconVersion)
	b = binary.LittleEndian.AppendUint64(b, n.catalogDigest)
	b = binary.LittleEndian.AppendUint64(b, n.catalogVersion)
	b = n.membership.AppendTable(b)
	head := len(b)
	b = append(b, 0)
	for _, peer := range due {
		if peer.Addr == "" {
			continue
		}
		payload := b[: head+1 : head+1]
		heard, known := n.peers[peer.ID]
		if !known || heard.digest != n.catalogDigest {
			// catalogVersion is the highest row version, so rows newer than
			// the peer's high-water exist exactly when it is below ours.
			since := uint64(0)
			if known && heard.version < n.catalogVersion {
				since = heard.version
			}
			rows := 0
			for _, r := range n.catalogOrder {
				if r.Version > since {
					rows++
				}
			}
			start := len(b)
			b = append(b, b[:head]...)
			b = binary.AppendUvarint(b, uint64(rows))
			for _, r := range n.catalogOrder {
				if r.Version <= since {
					continue
				}
				b = transport.AppendString(b, r.Spec.Name)
				b = binary.AppendUvarint(b, r.Version)
				b = append(b, boolByte(r.Deleted))
				b = binary.AppendUvarint(b, uint64(len(r.body)))
				b = append(b, r.body...)
			}
			payload = b[start:len(b):len(b)]
			n.rowsSent.Add(uint64(rows))
			if since == 0 && rows > 0 {
				n.fullSyncs.Inc()
			}
		}
		n.beaconBytes.Add(uint64(len(payload)))
		sends = append(sends, outMsg{to: peer.Addr, msg: transport.Message{
			Kind: transport.KindShardBeacon, Task: n.cfg.ID,
			Time: n.now, Payload: payload,
		}})
	}
	n.beaconBuf = b
	return sends
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// putRowLocked installs a catalog row (a local edit, or a gossiped row
// that supersedes the held one), keeping the name order, the digest, the
// live-row count and the high-water mark in step. body is kept, not copied.
func (n *Node) putRowLocked(rec CatalogRecord, body []byte) {
	name := rec.Spec.Name
	content := contentHash(body)
	row, ok := n.catalog[name]
	if ok {
		if !row.Deleted {
			n.liveRows.Add(-1)
		}
		n.catalogDigest ^= row.digestTerm()
		if t, own := n.owned[name]; own && row.content != content {
			// The task now means something else than the coordinator and
			// monitors running here were built from; the next reconcile
			// starts them again from the row that won.
			n.stopOwnedLocked(name, t)
		}
		row.CatalogRecord, row.body, row.content = rec, body, content
	} else {
		row = &catalogRow{CatalogRecord: rec, body: body, content: content}
		n.catalog[name] = row
		n.catalogOrder = insertByName(n.catalogOrder, row, rowName)
	}
	if !rec.Deleted {
		n.liveRows.Add(1)
	}
	n.catalogDigest ^= row.digestTerm()
	if rec.Version > n.catalogVersion {
		n.catalogVersion = rec.Version
	}
}

// mergeCatalogLocked merges the catalog rows of a beacon (the bytes after
// its member table). A row's JSON body is looked at only once the row is
// known to supersede the held one; a row that does not parse, or whose
// body names another task, is skipped, and a truncated list ends the
// merge with the rows before it applied.
func (n *Node) mergeCatalogLocked(b []byte) {
	count, b, err := transport.Uvarint(b)
	for i := uint64(0); i < count && err == nil; i++ {
		var name, body []byte
		var version uint64
		if name, b, err = transport.BytesField(b); err != nil {
			return
		}
		if version, b, err = transport.Uvarint(b); err != nil || len(b) == 0 {
			return
		}
		deleted := b[0] != 0
		if body, b, err = transport.BytesField(b[1:]); err != nil {
			return
		}
		if held, ok := n.catalog[string(name)]; ok && !supersedes(version, deleted, body, held) {
			continue
		}
		var cb catalogBody
		if json.Unmarshal(body, &cb) != nil || cb.Spec.Name == "" || cb.Spec.Name != string(name) {
			continue
		}
		n.putRowLocked(CatalogRecord{
			Spec: cb.Spec, HostSpec: cb.HostSpec, Version: version, Deleted: deleted,
		}, bytes.Clone(body))
	}
}

// Catalog lists the live (non-tombstoned) task catalog rows, sorted by
// task name.
func (n *Node) Catalog() []CatalogRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]CatalogRecord, 0, len(n.catalog))
	for _, rec := range n.catalogOrder {
		if !rec.Deleted {
			out = append(out, rec.CatalogRecord)
		}
	}
	return out
}
