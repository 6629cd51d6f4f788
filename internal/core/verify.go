package core

import (
	"fmt"

	"chameleondb/internal/hashtable"
	"chameleondb/internal/simclock"
)

// FlushAll forces every shard to flush its MemTable to a persisted L0 table
// (scheduling whatever compactions the level occupancy then demands). It is a
// maintenance entry point for the crash-consistency harness and benchmarks;
// quiesce concurrent writers first, and note that sessions' unsealed log
// batches still need their own Flush to become durable.
func (s *Store) FlushAll(c *simclock.Clock) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	// Settle the background pipeline first, so a latched job error surfaces
	// here instead of after the checkpoint.
	if s.maint != nil {
		if err := s.maint.drainAll(); err != nil {
			return err
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.async(c, func() error { return sh.flushAll(c) })
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// DumpABIs writes each shard's Auxiliary Bypass Index to persistent memory as
// a dumped table (the Get-Protect Mode dump of Figure 9) without waiting for
// the tail-latency monitor to engage — the maintenance entry point that lets
// the crash-consistency harness enumerate the dump path's persist events. At
// most two concurrent dumps per shard are taken so the manifest's sized slot
// is never exceeded. No-op for shards with an empty ABI or when the ABI is
// disabled.
func (s *Store) DumpABIs(c *simclock.Clock) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	if s.cfg.DisableABI {
		return nil
	}
	// Same settling barrier as FlushAll: a dump taken mid-spill would
	// persist an ABI whose log-only entries a queued job is about to move.
	if s.maint != nil {
		if err := s.maint.drainAll(); err != nil {
			return err
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		var err error
		if sh.abi.Len() > 0 && len(sh.dumped) < 2 {
			err = sh.async(c, func() error { return sh.dumpABI(c) })
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// VerifyIntegrity checks the store's structural invariants, the
// self-consistency half of the crash-recovery contract:
//
//   - every persisted table's occupied-slot count matches its manifest count;
//   - every hash present in any index structure resolves through the normal
//     read path (in particular, upper-level entries are covered by the ABI or
//     a dumped table — the bypass invariant of Section 2.2);
//   - every resolved non-tombstone reference points at a live, checksummed
//     log entry whose hash matches (no dangling log pointers).
//
// Only winning references are chased: a superseded slot may legally point
// into a log segment that garbage collection has since reclaimed. Callers
// must quiesce all sessions first.
func (s *Store) VerifyIntegrity(c *simclock.Clock) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.verifyLocked(c)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

func (sh *shard) verifyLocked(c *simclock.Clock) error {
	type named struct {
		name string
		p    *ptable
	}
	var tables []named
	for lvl := range sh.levels {
		for i, p := range sh.levels[lvl] {
			tables = append(tables, named{fmt.Sprintf("L%d[%d]", lvl, i), p})
		}
	}
	for i, p := range sh.dumped {
		tables = append(tables, named{fmt.Sprintf("dump[%d]", i), p})
	}
	if sh.last != nil {
		tables = append(tables, named{"last", sh.last})
	}

	hashes := make(map[uint64]struct{})
	collect := func(s hashtable.Slot) bool {
		hashes[s.Hash] = struct{}{}
		return true
	}
	for _, t := range tables {
		n := 0
		t.p.t.Iterate(func(s hashtable.Slot) bool { n++; return collect(s) })
		if n != t.p.t.Len() {
			return fmt.Errorf("table %s holds %d slots, manifest says %d", t.name, n, t.p.t.Len())
		}
	}
	sh.mem.Iterate(collect)
	for _, fm := range sh.frozen {
		fm.mem.Iterate(collect)
	}
	if sh.abi != nil {
		sh.abi.Iterate(collect)
	}

	for h := range hashes {
		slot, _, ok := sh.lookup(c, h)
		if !ok {
			return fmt.Errorf("hash %#x present in a structure but unreachable via the read path", h)
		}
		if slot.Tombstone() {
			continue
		}
		e, err := sh.store.log.Read(c, slot.LSN())
		if err != nil {
			return fmt.Errorf("hash %#x: winning reference LSN %d is dangling: %w", h, slot.LSN(), err)
		}
		if e.Hash != h {
			return fmt.Errorf("hash %#x: LSN %d holds entry for hash %#x", h, slot.LSN(), e.Hash)
		}
	}
	return nil
}
