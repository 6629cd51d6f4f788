package core

import (
	"chameleondb/internal/device"
	"chameleondb/internal/hashtable"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// Recover rebuilds the store after a crash (Sections 2.1, 2.3):
//
//  1. Each shard's manifest is read and its persisted table directory
//     reattached.
//  2. The storage log is scanned from the oldest shard watermark; entries
//     newer than their shard's watermark and not superseded by a persisted
//     table are replayed into the MemTables (spilling/flushing as in normal
//     operation). After this step the store is ready to serve requests —
//     the elapsed virtual time so far is Table 4's restart time.
//  3. The ABIs are rebuilt from the persisted upper tables, restoring the
//     bypass-read fast path. The paper does this lazily alongside
//     foreground traffic; here it completes inside Recover, and the extra
//     time is reported separately (RecoverTimes).
//
// In normal operation the watermarks trail the log tail by at most the
// MemTable contents, so step 2 is quick. After a Write-Intensive Mode or
// Get-Protect Mode crash, everything spilled into the ABI since the last
// compaction must be re-scanned, which is exactly the longer restart the
// paper trades for put throughput (Figure 15 discussion).
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	minLSN := s.log.Tail()
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.readManifest(c)
		if err == nil {
			// The reattached table directory replaces the post-crash empty
			// view; replay and the ABI rebuild publish whatever they change.
			sh.publishView()
			sh.replayFilter = sh.recoverLSN
			if sh.recoverLSN < minLSN {
				minLSN = sh.recoverLSN
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}

	s.replayPos.Store(minLSN)
	defer s.replayPos.Store(int64(1) << 62)
	var replayErr error
	err := s.log.Scan(c, minLSN, func(e wlog.Entry) bool {
		s.replayPos.Store(e.LSN)
		c.Advance(device.CostHash64)
		h := s.hashFn(e.Key)
		sh := s.shardFor(h)
		if e.LSN < sh.replayFilter {
			return true
		}
		// Entries newer than anything ever persisted to a table cannot be
		// superseded; only the conservative over-replay window needs the
		// expensive table probes.
		if e.LSN <= sh.persistedMaxLSN && sh.supersededBy(c, h, e.LSN) {
			return true
		}
		replayErr = sh.insertMem(c, h, e.LSN, e.Tombstone())
		return replayErr == nil
	})
	if err == nil {
		err = replayErr
	}
	if err != nil {
		return err
	}
	s.replayPos.Store(int64(1) << 62)
	// Re-checkpoint every shard so a second crash does not rescan the same
	// window (replay-time flushes left some watermarks clamped).
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.persistManifest(c)
		sh.mu.Unlock()
	}
	// A store reopened after a clean Close runs on the one host-metadata
	// record that carries the exact tail, and reservations inside an already
	// mapped segment do not rewrite it: replace it with a bound record before
	// the first session can append, or a kill would restart below everything
	// acknowledged from here to the segment's end. A record that fails to
	// reach the backend fails every session operation (readable), so nothing
	// is acknowledged on the old one. The simulated backend has no hook.
	s.log.SyncMeta()
	s.crashed.Store(false)
	s.lastRecoverReadyNs = c.Now() - start
	s.trace.Emit(c.Now(), obs.EvRecoverReady, -1, s.lastRecoverReadyNs)

	// Step 3: rebuild the ABIs from the upper levels, newest table first so
	// the newest version of each key wins; entries replayed from the log
	// into the ABI (WIM recovery) are newer still and are preserved by
	// inserting only absent hashes. An upper-table entry that a dumped table
	// supersedes stays out: the ABI is probed before the dumps, and a dump of
	// an ABI that held spills (Write-Intensive / Get-Protect operation) is
	// newer than tables those spills never reached.
	if !s.cfg.DisableABI {
		for _, sh := range s.shards {
			sh.mu.Lock()
			err := sh.rebuildABI(c)
			sh.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	// The Pmem-LSM variants' volatile accelerators are likewise rebuilt
	// after the store is ready (filters and pins are not persisted). They
	// run without an ABI, so the view lists every persisted table.
	if s.cfg.BloomFilters || s.cfg.PinUppers {
		for _, sh := range s.shards {
			sh.mu.Lock()
			for _, t := range sh.view.Load().tiers {
				if t.p != nil {
					t.p.t.ChargeScan(c)
					t.p.build(c, s.cfg.BloomFilters, s.cfg.PinUppers && t.src == srcUpper)
				}
			}
			sh.mu.Unlock()
		}
	}
	s.lastRecoverFullNs = c.Now() - start
	s.trace.Emit(c.Now(), obs.EvRecoverFull, -1, s.lastRecoverFullNs)
	// Reopen the maintenance pool last: replay above ran its jobs inline
	// (crashed was still set when entries were inserted), and the rebuild
	// loops must not race background merges.
	if s.maint != nil {
		s.maint.resume()
	}
	return nil
}

// rebuildABI is one shard's step 3 of Recover: it walks the upper-level
// tiers the view lists while the ABI is behind, and publishes the result.
// The ABI grows once, ahead of every entry those tables hold; older tables
// hold mostly versions it already has, so once they are in it settles to
// what it holds (settleABI). Called with sh.mu held.
func (sh *shard) rebuildABI(c *simclock.Clock) error {
	v := sh.view.Load()
	n := 0
	for _, t := range v.tiers {
		if t.src == srcUpper {
			n += t.p.t.Len()
		}
	}
	err := sh.growABI(c, n)
	for _, t := range v.tiers {
		if err != nil {
			break
		}
		if t.src != srcUpper {
			continue
		}
		t.p.t.ChargeScan(c)
		sh.abiHeld = 1
		t.p.t.Iterate(func(slot hashtable.Slot) bool {
			// A newer version in a dump keeps the entry out of the ABI.
			if d, ok := newestIn(c, v, srcDumped, slot.Hash); !ok || d.LSN() <= slot.LSN() {
				err = sh.abiInsert(c, slot, true, 0)
			}
			return err == nil
		})
	}
	if err == nil {
		err = sh.settleABI(c)
	}
	sh.abiBehind = false
	sh.publishView()
	return err
}

// newestIn returns the newest version of hash h among the view's persisted
// tiers of source src: the first hit, since tiers run newest first. Recovery
// probes the tables themselves; their accelerators are rebuilt afterwards.
func newestIn(c *simclock.Clock, v *shardView, src getSource, h uint64) (hashtable.Slot, bool) {
	for _, t := range v.tiers {
		if t.src == src {
			if s, ok := t.p.t.Get(c, h); ok {
				return s, true
			}
		}
	}
	return hashtable.Slot{}, false
}

// supersededBy reports whether any persisted table already holds an entry
// for hash h at least as new as lsn, in which case a replayed log entry must
// be skipped (it would otherwise shadow a newer compacted version). Each
// persisted source the view lists (upper levels, dumped tables, last level)
// decides by its newest version. Called during recovery, only for entries at
// or below persistedMaxLSN.
func (sh *shard) supersededBy(c *simclock.Clock, h uint64, lsn int64) bool {
	v := sh.view.Load()
	for _, src := range [...]getSource{srcUpper, srcDumped, srcLast} {
		if s, ok := newestIn(c, v, src, h); ok && s.LSN() >= lsn {
			return true
		}
	}
	return false
}
