package core

import (
	"fmt"

	"chameleondb/internal/device"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// CompactLog reclaims space from the head of the value log — an extension
// beyond the paper, which leaves log-space garbage collection out of scope
// (Section 2.5 only defines the append format). The approach is WiscKey-
// style head GC adapted to ChameleonDB's hashed index:
//
//  1. Scan the oldest log segments. For each entry, check the shard's index
//     under its lock: if the entry is still the live version of its key, it
//     is relocated — re-appended at the tail and re-indexed through the
//     MemTable, exactly like a put of the same value. Dead versions and
//     settled tombstones are dropped.
//  2. Checkpoint every shard (flush MemTables, persist manifests) so no
//     recovery watermark points below the reclaimed region.
//  3. Free the emptied segments back to the arena for reuse.
//
// The method must be called from a quiesced store (no concurrent sessions):
// like Crash/Recover it is a maintenance operation. It returns the bytes
// freed. All device traffic (the segment scan, the relocation appends, the
// checkpoint) is charged to c, so GC cost is measurable in experiments.
func (s *Store) CompactLog(c *simclock.Clock, reclaimBytes int64) (int64, error) {
	if s.crashed.Load() {
		return 0, ErrCrashed
	}
	// Seal every session's private batch chunk first: relocation re-appends
	// live entries at the tail, and any session append that later landed in a
	// still-open chunk below the tail would carry a lower LSN than the
	// relocated copy of an older version — recovery's LSN-ordered replay
	// would then resurrect the old version over it (found by the crash-point
	// sweep).
	if err := s.log.SealAll(c); err != nil {
		return 0, err
	}
	head := s.log.Base()
	seg := s.log.SegmentSize()
	target := head + (reclaimBytes+seg-1)/seg*seg
	// Never reclaim into a segment an appender may still write: the tail
	// segment, or below it a session's unsealed private batch chunk.
	// MinNextLSN is the conservative bound over both. (Capping at Tail alone
	// is not enough: when a session's unsealed chunk ends exactly at a
	// segment boundary the tail sits on the boundary too, and the chunk's
	// segment would be freed while the session keeps appending into it
	// through its cached arena offset — found by the crash-point sweep.)
	// GCFloor further clamps at any registered GC hold, so a lagging
	// replica's unshipped suffix is neither relocated out from under its
	// cursor nor freed.
	if maxTarget := s.log.GCFloor() / seg * seg; target > maxTarget {
		target = maxTarget
	}
	if target <= head {
		return 0, nil
	}

	ap := s.log.NewAppender()
	var relocated, dropped int64
	var relocErr error
	err := s.log.Scan(c, head, func(e wlog.Entry) bool {
		if e.LSN >= target {
			return false
		}
		c.Advance(device.CostHash64)
		h := s.hashFn(e.Key)
		sh := s.shardFor(h)
		sh.mu.Lock()
		slot, _, ok := sh.lookup(c, h)
		if !ok || slot.LSN() != e.LSN || slot.Tombstone() {
			// A newer version exists elsewhere, the key is deleted, or the
			// entry was never indexed: the bytes are garbage.
			dropped++
			sh.mu.Unlock()
			return true
		}
		newLSN, err := ap.AppendEntry(c, e.Key, e.Value, e.Flags)
		if err != nil {
			relocErr = err
			sh.mu.Unlock()
			return false
		}
		relocErr = sh.insertMem(c, h, newLSN, false)
		relocated++
		sh.mu.Unlock()
		return relocErr == nil
	})
	if err == nil {
		err = relocErr
	}
	if err != nil {
		return 0, fmt.Errorf("core: log GC relocation: %w", err)
	}
	if err := ap.Release(c); err != nil {
		return 0, err
	}
	s.media[mediaGC].Add(ap.MediaBytes())

	// Relocation re-indexes through the MemTables, which may have frozen
	// tables and enqueued flush jobs when the maintenance pool is active.
	// Drain them before checkpointing so the occupancy checks below see
	// settled shards, not a merge in flight.
	if s.maint != nil {
		if err := s.maint.drainAll(); err != nil {
			return 0, fmt.Errorf("core: log GC drain: %w", err)
		}
	}

	// Checkpoint: persist every MemTable (which also syncs all appenders)
	// and re-persist manifests so no watermark references the doomed
	// segments.
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.flushAll(c)
		if err == nil && sh.recoverLSN < target {
			sh.persistManifest(c)
		}
		ok := sh.recoverLSN >= target || sh.spillMinLSN == 0
		sh.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("core: log GC checkpoint: %w", err)
		}
		if !ok {
			// A spilled ABI (Write-Intensive / Get-Protect operation) still
			// depends on the region: force the last-level compaction that
			// persists it. The occupancy is re-checked under the re-acquired
			// lock — a queued maintenance job may already have merged the
			// spill in the window since the checkpoint released the shard, so
			// the merge must be idempotent: skip it when the dependency is
			// gone and only refresh the watermark.
			sh.mu.Lock()
			err = nil
			if sh.spillMinLSN != 0 {
				err = sh.lastLevelCompaction(c)
			}
			if err == nil && sh.recoverLSN < target {
				sh.persistManifest(c)
			}
			sh.mu.Unlock()
			if err != nil {
				return 0, fmt.Errorf("core: log GC forced compaction: %w", err)
			}
		}
	}
	freed := s.log.FreeBefore(target)
	s.stats.LogGCs.Add(1)
	s.stats.LogGCRelocated.Add(relocated)
	s.stats.LogGCDropped.Add(dropped)
	s.trace.Emit(c.Now(), obs.EvLogGC, -1, freed)
	return freed, nil
}
