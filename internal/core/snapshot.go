package core

import (
	"bytes"
	"errors"
	"sort"

	"chameleondb/internal/device"
	"chameleondb/internal/hashtable"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
)

// ErrSnapshotReleased is returned by Scan on a snapshot after Release.
var ErrSnapshotReleased = errors.New("core: snapshot has been released")

// ErrSnapshotStale is returned by Scan on a snapshot that predates a crash:
// recovery rebuilds the arena, so the snapshot's table references are dead.
var ErrSnapshotStale = errors.New("core: snapshot predates a crash; take a new one")

// Snapshot is a point-in-time view of the store for range scans.
//
// Consistency model: each shard is captured under its lock — the MemTable and
// ABI (the two structures writers mutate in place) are deep-copied, every
// other tier is immutable and captured by reference. A captured shard is
// therefore an exact cut of that shard: writes after the capture never appear,
// writes acknowledged before it always do, and tombstones captured stay
// suppressed no matter what concurrent flushes, spills, dumps or compactions
// do afterwards. An eager snapshot (Session.Snapshot) captures every shard at
// creation, so the whole key space is cut within the creation window; a lazy
// snapshot (the one-shot Session.Scan) captures each shard on first touch,
// which is the Redis-SCAN guarantee: per-shard consistent, cross-shard only
// bounded by the scan's lifetime.
//
// The snapshot registers its own reader-epoch slot and keeps it pinned until
// Release, so epoch reclamation never recycles a referenced table's arena
// space while the snapshot is open. Release promptly — an open snapshot
// defers all table reclamation. Log-head GC (CompactLog) requires a quiesced
// store and so cannot run under an open snapshot; a scan that still observes
// reclaimed log bytes for a live winner reports the error rather than
// guessing. Not safe for concurrent use.
type Snapshot struct {
	store    *Store
	clock    *simclock.Clock
	slot     *readerSlot
	gen      int64
	shards   []*snapShard
	released bool
}

// snapShard is one shard's captured cut — its view, with the MemTable and ABI
// cloned — plus its lazily materialized, hash-ordered merge result.
type snapShard struct {
	view shardView

	materialized bool
	entries      []snapEntry // ascending (hash, key)
}

// snapEntry is one live key surviving the merge: the winning (newest)
// reference for its full key, tombstones already suppressed. key stays nil
// for singleton hash groups — no collision possible, so the key is read from
// the log only when the entry is emitted.
type snapEntry struct {
	hash uint64
	ref  uint64
	key  []byte
}

// snapCand is one merge input: a slot plus the recency rank of the structure
// it came from (0 = MemTable, larger = older), which is the version order the
// dedup resolves ties by.
type snapCand struct {
	slot hashtable.Slot
	rank int
}

// newSnapshot pins a reader epoch and, when eager, captures every shard.
func (s *Store) newSnapshot(c *simclock.Clock, eager bool) (*Snapshot, error) {
	if err := s.readable(); err != nil {
		return nil, err
	}
	sn := &Snapshot{
		store:  s,
		clock:  c,
		slot:   s.em.register(),
		gen:    s.crashGen.Load(),
		shards: make([]*snapShard, len(s.shards)),
	}
	// Pin before any capture: every table a capture references is either
	// still linked (retired later, at an epoch above ours) or was unlinked
	// before the capture could see it.
	sn.slot.pin(s.em)
	if eager {
		for si := range s.shards {
			sn.capture(si)
		}
	}
	return sn, nil
}

// Snapshot implements kvstore.Scanner: a stable view capturing every shard
// now, for multi-call cursor iteration. Release it when done.
func (se *Session) Snapshot() (kvstore.Snapshot, error) {
	return se.store.newSnapshot(se.clock, true)
}

// Scan implements kvstore.Scanner: the one-shot form. Each call takes a lazy
// snapshot, pages out of it, and releases it, so successive calls see
// Redis-SCAN guarantees: every key present for the whole iteration is
// returned at least once, keys mutated mid-iteration may or may not be.
func (se *Session) Scan(cursor uint64, limit int) ([]kvstore.KV, uint64, error) {
	sn, err := se.store.newSnapshot(se.clock, false)
	if err != nil {
		return nil, 0, err
	}
	defer sn.Release()
	return sn.Scan(cursor, limit)
}

// Release unpins the snapshot's reader epoch so table reclamation can resume.
// Idempotent.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	sn.slot.unpin()
	sn.store.em.unregister(sn.slot)
}

// Scan returns up to limit key/value pairs in ascending (hash, key) order
// starting at the cursor, plus the cursor to resume from. Pass 0 to start; a
// returned cursor of 0 means the iteration is complete. A batch never splits
// a hash group (keys colliding on the full 64-bit hash are returned
// together), so a caller that respects the cursor sees every live key exactly
// once. limit is a floor, not an exact size, for the same reason.
func (sn *Snapshot) Scan(cursor uint64, limit int) ([]kvstore.KV, uint64, error) {
	if sn.released {
		return nil, 0, ErrSnapshotReleased
	}
	if err := sn.store.readable(); err != nil {
		return nil, 0, err
	}
	if sn.gen != sn.store.crashGen.Load() {
		return nil, 0, ErrSnapshotStale
	}
	if limit < 1 {
		limit = 1
	}
	s := sn.store
	c := sn.clock
	si := 0
	if s.shardShift < 64 {
		si = int(cursor >> s.shardShift)
	}
	var out []kvstore.KV
	var lastHash uint64
	first := true
	for ; si < len(s.shards); si++ {
		if len(out) >= limit {
			// Shard boundaries are hash boundaries (top bits route), so the
			// resume point is the floor of the next shard's hash range.
			return out, uint64(si) << s.shardShift, nil
		}
		sc := sn.capture(si)
		if err := sn.materialize(sc); err != nil {
			return nil, 0, err
		}
		ents := sc.entries
		k := 0
		if first {
			// Only the cursor's own shard needs a lower-bound search; every
			// later shard's hash range lies entirely above the cursor.
			k = sort.Search(len(ents), func(i int) bool { return ents[i].hash >= cursor })
			first = false
		}
		for ; k < len(ents); k++ {
			ent := ents[k]
			if len(out) >= limit && ent.hash != lastHash {
				return out, ent.hash, nil
			}
			e, err := s.log.Read(c, int64(ent.ref&^hashtable.TombstoneBit))
			if err != nil {
				return nil, 0, err
			}
			kv := kvstore.KV{Value: append([]byte(nil), e.Value...)}
			if ent.key != nil {
				kv.Key = append([]byte(nil), ent.key...)
			} else {
				kv.Key = append([]byte(nil), e.Key...)
			}
			out = append(out, kv)
			lastHash = ent.hash
		}
	}
	return out, 0, nil
}

// capture cuts shard si under its lock: a copy of its current view with the
// two tables writers mutate in place, the MemTable and the ABI, deep-copied;
// every other tier is immutable and shared. Charges the DRAM copy to the
// snapshot's clock.
func (sn *Snapshot) capture(si int) *snapShard {
	if sc := sn.shards[si]; sc != nil {
		return sc
	}
	sh := sn.store.shards[si]
	sc := &snapShard{}
	var copied int64
	sh.mu.Lock()
	sc.view.tiers = append(sc.view.buf[:0], sh.view.Load().tiers...)
	for i := range sc.view.tiers {
		if t := &sc.view.tiers[i]; i == 0 || t.src == srcABI {
			t.mem = t.mem.Clone()
			copied += t.mem.DRAMFootprint()
		}
	}
	sh.mu.Unlock()
	sn.clock.Advance(int64(float64(copied) * device.CostDRAMSeqPerByte))
	sn.shards[si] = sc
	return sc
}

// materialize merges the captured tiers into one hash-ordered run of live
// entries: collect every slot with its recency rank, sort by (hash, rank),
// then resolve each hash group newest-first — the first occurrence of a full
// key wins, a winning tombstone suppresses the key, and colliding keys
// survive side by side ordered by key bytes. Charged like a compaction merge:
// sequential scans of the Pmem sources plus per-slot merge CPU.
func (sn *Snapshot) materialize(sc *snapShard) error {
	if sc.materialized {
		return nil
	}
	s := sn.store
	c := sn.clock
	var cands []snapCand
	for rank := range sc.view.tiers {
		sc.view.tiers[rank].scan(c, func(sl hashtable.Slot) bool {
			c.Advance(device.CostCompactionPerSlot)
			cands = append(cands, snapCand{slot: sl, rank: rank})
			return true
		})
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].slot.Hash != cands[j].slot.Hash {
			return cands[i].slot.Hash < cands[j].slot.Hash
		}
		return cands[i].rank < cands[j].rank
	})

	entries := make([]snapEntry, 0, len(cands))
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && cands[j].slot.Hash == cands[i].slot.Hash {
			j++
		}
		group := cands[i:j]
		if len(group) == 1 {
			// Singleton hash group: no collision and no older version, so the
			// slot speaks for its key without a log read. A tombstone here is
			// the key's only version — suppressed.
			if !group[0].slot.Tombstone() {
				entries = append(entries, snapEntry{hash: group[0].slot.Hash, ref: group[0].slot.Ref})
			}
		} else {
			start := len(entries)
			var seen [][]byte
			for _, cd := range group {
				e, err := s.log.Read(c, cd.slot.LSN())
				if err != nil {
					// Unreadable candidate: its log bytes were reclaimed by GC
					// or lost with the log tail in a crash. The probe path
					// defines per-key truth, and it never reads such a slot on
					// behalf of a live key — a get either resolves at a newer
					// readable version above it in this group, or reaches it
					// and reports a miss (tombstone) / the read error (live
					// slot, which the integrity checks surface on their own).
					// Match the probe: an unreadable tombstone is authoritative
					// and kills everything older in the group; an unreadable
					// value is a superseded version, dead weight.
					if cd.slot.Tombstone() {
						break
					}
					continue
				}
				dup := false
				for _, k := range seen {
					if bytes.Equal(k, e.Key) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				key := append([]byte(nil), e.Key...)
				seen = append(seen, key)
				if cd.slot.Tombstone() {
					continue
				}
				entries = append(entries, snapEntry{hash: cd.slot.Hash, ref: cd.slot.Ref, key: key})
			}
			// Colliding survivors order deterministically by key bytes.
			grp := entries[start:]
			sort.Slice(grp, func(a, b int) bool { return bytes.Compare(grp[a].key, grp[b].key) < 0 })
		}
		i = j
	}
	sc.entries = entries
	sc.materialized = true
	return nil
}
