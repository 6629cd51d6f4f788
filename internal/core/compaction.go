package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"chameleondb/internal/device"
	"chameleondb/internal/hashtable"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
)

// flushFrozen persists the oldest frozen MemTable as a new immutable L0
// table, mirrors its entries into the ABI (Figure 7), advances the recovery
// watermark, and schedules whatever compaction the level occupancy demands.
// Called with sh.mu held.
func (sh *shard) flushFrozen(c *simclock.Clock) error {
	fm := sh.frozen[0]
	flushed := int64(fm.mem.Len())
	// If the ABI cannot absorb this MemTable, clear it with a last-level
	// compaction first (geometry normally prevents this; the last level is
	// sized to whatever it is handed, so this is a safety valve, not the
	// steady state).
	if sh.abiFull(fm.mem.Len()) {
		if err := sh.lastLevelCompaction(c); err != nil {
			return err
		}
	}
	// The log must be at least as durable as the index that points into it:
	// write back every worker's batch before the table, so the manifest
	// persist's barrier covers both.
	sh.store.log.WriteBackAll(c)
	table, err := sh.buildTable(c, mediaFlush, sh.upperCap(fm.mem.Len(), sh.store.cfg.MemTableSlots), fm.mem.Iterate)
	if err != nil {
		return err
	}
	if sh.abi != nil {
		// Mirror into the ABI. Version order holds because frozen tables are
		// flushed oldest-first: everything newer than fm still sits in the
		// MemTable or a younger frozen table, both probed before the ABI.
		if err := sh.abiAbsorb(c, fm.mem); err != nil {
			return err
		}
	}
	sh.levels[0] = append(sh.levels[0], sh.wrapUpper(c, table))
	if fm.maxLSN > sh.persistedMaxLSN {
		sh.persistedMaxLSN = fm.maxLSN
	}
	sh.frozen = sh.frozen[1:]
	sh.publishView()
	sh.store.stats.Flushes.Add(1)
	sh.store.trace.Emit(c.Now(), obs.EvFlush, sh.id, flushed)
	sh.persistManifest(c)
	if len(sh.levels[0]) >= sh.store.cfg.Ratio {
		return sh.schedule(c, maintCompact)
	}
	return nil
}

// spillFrozen is the Write-Intensive / Get-Protect path (Sections 2.3, 2.4):
// the oldest frozen MemTable moves into the ABI without persisting an L0
// table, so the only persistent copy of its entries is the storage log — the
// recovery watermark stays behind them. Called with sh.mu held.
func (sh *shard) spillFrozen(c *simclock.Clock) error {
	fm := sh.frozen[0]
	if sh.abiFull(fm.mem.Len()) {
		if sh.store.gpmActive.Load() && len(sh.dumped) < sh.store.cfg.GetProtect.MaxDumps {
			if err := sh.dumpABI(c); err != nil {
				return err
			}
		} else {
			// WIM, or GPM with its dump budget exhausted: the postponed
			// last-level compaction can wait no longer (Section 2.4).
			if err := sh.lastLevelCompaction(c); err != nil {
				return err
			}
		}
	}
	if sh.spillMinLSN == 0 || (fm.minLSN != 0 && fm.minLSN < sh.spillMinLSN) {
		sh.spillMinLSN = fm.minLSN
	}
	if fm.maxLSN > sh.spillMaxLSN {
		sh.spillMaxLSN = fm.maxLSN
	}
	spilled := int64(fm.mem.Len())
	// The ABI gains the spilled entries in place (or in a grown copy):
	// old-view readers probe it after their still complete frozen MemTable,
	// so the duplicates are harmless. Then the frozen table is popped and the
	// view republished.
	if err := sh.abiAbsorb(c, fm.mem); err != nil {
		return err
	}
	sh.frozen = sh.frozen[1:]
	sh.publishView()
	sh.store.stats.Spills.Add(1)
	sh.store.trace.Emit(c.Now(), obs.EvSpill, sh.id, spilled)
	return nil
}

// abiFull reports whether n more entries would fill the ABI past
// abiFullFraction of the capacity it grows to, forcing it to be cleared
// first. False without an ABI.
func (sh *shard) abiFull(n int) bool {
	return sh.abi != nil && float64(sh.abi.Len()+n) >= abiFullFraction*float64(sh.store.cfg.ABISlots)
}

// dumpABI writes the ABI verbatim to the Pmem as a new dumped table without
// merging it into the last level (Figure 9), then clears the ABI. Called
// with sh.mu held, only during Get-Protect Mode.
func (sh *shard) dumpABI(c *simclock.Clock) error {
	if sh.abi.Len() == 0 {
		return nil
	}
	sh.store.log.WriteBackAll(c)
	// A dump that fits a table no larger than the ABI's cap keeps the power
	// of two it always had; an ABI dumped fuller than designFill — the normal
	// Get-Protect case, at abiFullFraction — is fitted instead of doubled.
	designed := min(needCap(sh.abi.Len(), designFill, 8), sh.store.cfg.ABISlots)
	table, err := sh.buildTable(c, mediaDump, fittedCap(sh.abi.Len(), designed), sh.abi.Iterate)
	if err != nil {
		return err
	}
	sh.dumped = append(sh.dumped, &ptable{t: table})
	// Fresh ABI, not Reset: an old-view reader has no dumped table covering
	// these entries, so it must keep seeing them in its frozen ABI.
	sh.rotateABI()
	sh.publishView()
	if sh.spillMaxLSN > sh.persistedMaxLSN {
		sh.persistedMaxLSN = sh.spillMaxLSN
	}
	sh.spillMinLSN = 0
	sh.spillMaxLSN = 0
	sh.store.stats.Dumps.Add(1)
	sh.store.trace.Emit(c.Now(), obs.EvDump, sh.id, int64(table.Len()))
	sh.persistManifest(c)
	return nil
}

// compactDirect implements Direct Compaction (Figure 5b): one merge covering
// L0 and every full upper level, landing in the first level with room — or
// the last level when every upper level is at capacity. Called with sh.mu
// held when L0 holds Ratio tables.
func (sh *shard) compactDirect(c *simclock.Clock) error {
	cfg := sh.store.cfg
	dst := 1
	for dst <= cfg.Levels-2 && len(sh.levels[dst]) >= cfg.Ratio-1 {
		dst++
	}
	if dst > cfg.Levels-2 {
		return sh.lastLevelCompaction(c)
	}
	// Merge levels[0 .. dst-1] into one table at level dst. Geometry
	// guarantees the contents fit: r*S0 + sum (r-1)*Si == S_dst. Sources are
	// collected newest-first (upper levels hold newer data, and within a
	// level later tables are newer) so the merge keeps the newest version.
	var old []*ptable
	var sources []*hashtable.PmemTable
	for lvl := 0; lvl < dst; lvl++ {
		tables := sh.levels[lvl]
		for i := len(tables) - 1; i >= 0; i-- {
			old = append(old, tables[i])
			sources = append(sources, tables[i].t)
		}
	}
	merged, err := sh.mergeTables(c, cfg.MemTableSlots*pow(cfg.Ratio, dst), sources)
	if err != nil {
		return err
	}
	sh.levels[dst] = append(sh.levels[dst], sh.wrapUpper(c, merged))
	for lvl := 0; lvl < dst; lvl++ {
		sh.levels[lvl] = nil
	}
	sh.publishView()
	sh.store.stats.UpperCompactions.Add(1)
	sh.store.trace.Emit(c.Now(), obs.EvUpperCompact, sh.id, int64(merged.Len()))
	sh.persistManifest(c)
	sh.store.em.retire(&sh.store.stats, old)
	return nil
}

// compactLevelByLevel implements the classic cascade (Figure 5a): merge L0's
// r tables into one L1 table; if that fills L1, merge L1 into L2; and so on,
// each step reading and rewriting its level (the overhead Direct Compaction
// avoids). Called with sh.mu held when L0 holds Ratio tables.
func (sh *shard) compactLevelByLevel(c *simclock.Clock) error {
	cfg := sh.store.cfg
	for lvl := 0; lvl <= cfg.Levels-2; lvl++ {
		full := cfg.Ratio
		if len(sh.levels[lvl]) < full {
			return nil
		}
		if lvl == cfg.Levels-2 {
			return sh.lastLevelCompaction(c)
		}
		tables := sh.levels[lvl]
		sources := make([]*hashtable.PmemTable, 0, len(tables))
		for i := len(tables) - 1; i >= 0; i-- {
			sources = append(sources, tables[i].t)
		}
		merged, err := sh.mergeTables(c, cfg.MemTableSlots*pow(cfg.Ratio, lvl+1), sources)
		if err != nil {
			return err
		}
		sh.levels[lvl+1] = append(sh.levels[lvl+1], sh.wrapUpper(c, merged))
		sh.levels[lvl] = nil
		sh.publishView()
		sh.store.stats.UpperCompactions.Add(1)
		sh.store.trace.Emit(c.Now(), obs.EvUpperCompact, sh.id, int64(merged.Len()))
		sh.persistManifest(c)
		sh.store.em.retire(&sh.store.stats, tables)
	}
	return nil
}

// mergeTables merges upper-level sources (newest first) into one new
// persisted table designed at minCap slots or more, and sized by upperCap
// from the merged entries. Tombstones are kept: older versions may still sit
// below the merged levels. Pmem source tables are charged as sequential
// scans.
func (sh *shard) mergeTables(c *simclock.Clock, minCap int, sources []*hashtable.PmemTable) (*hashtable.PmemTable, error) {
	entries := 0 // duplicates included
	for _, t := range sources {
		t.ChargeScan(c)
		entries += t.Len()
	}
	// Stage the newest-wins merge in DRAM, then emit.
	winners := getStaging(needCap(entries, 0.85, 16))
	defer putStaging(winners)
	for _, t := range sources {
		t.Iterate(func(s hashtable.Slot) bool {
			c.Advance(device.CostCompactionPerSlot)
			winners.InsertIfAbsent(s.Hash, s.Ref)
			return true
		})
	}
	capSlots := sh.upperCap(winners.Len(), needCap(entries, 0.99, minCap))
	return sh.buildTable(c, mediaUpper, capSlots, winners.Iterate)
}

// lastLevelCompaction merges everything below the MemTables into a new last
// level table. Per Section 2.2/Figure 8 the merge reads the upper-level
// entries from the ABI in DRAM instead of re-reading the persisted upper
// tables; dumped ABI tables and the old last level are read from Pmem. All
// upper levels, dumps, and the ABI are cleared afterwards, and the recovery
// watermark advances to the log frontier. Called with sh.mu held.
func (sh *shard) lastLevelCompaction(c *simclock.Clock) error {
	sh.store.log.WriteBackAll(c)
	// Everything from the ABI down: the ABI stands in for the upper levels
	// unless recovery has not rebuilt it yet, when the view lists them too.
	sources := sh.view.Load().belowMem()
	bound := 0 // entries staged, duplicates included
	for i := range sources {
		bound += sources[i].len()
	}
	winners := getStaging(needCap(bound, 0.80, 16))
	defer putStaging(winners)
	// Sources are staged newest first, so the first version of a hash wins.
	stage := func(s hashtable.Slot) bool {
		c.Advance(device.CostCompactionPerSlot)
		winners.InsertIfAbsent(s.Hash, s.Ref)
		return true
	}
	if sh.abiBehind {
		// Recovery replay: the upper tables are read beside a partial ABI
		// and dumps that may hold spills newer than any of them, so no
		// source order is version order. The LSN is.
		stage = func(s hashtable.Slot) bool {
			c.Advance(device.CostCompactionPerSlot)
			if ref, _, ok := winners.Get(s.Hash); !ok || (hashtable.Slot{Ref: ref}).LSN() < s.LSN() {
				winners.Insert(s.Hash, s.Ref)
			}
			return true
		}
	}

	for i := range sources {
		sources[i].scan(c, stage)
	}

	live := 0
	winners.Iterate(func(s hashtable.Slot) bool {
		if !s.Tombstone() {
			live++
		}
		return true
	})
	// The designed capacity holds r^(l-1) MemTables (as a power of two); a
	// last level that has outgrown it is written at the size its entries
	// need (DESIGN.md section 3).
	capSlots := fittedCap(live, needCap(0, 1, sh.store.cfg.lastLevelSlots()))
	newLast, err := sh.buildTable(c, mediaLast, capSlots, func(yield func(hashtable.Slot) bool) {
		winners.Iterate(func(s hashtable.Slot) bool {
			if s.Tombstone() {
				return true // the last level is the floor: drop tombstones
			}
			return yield(s)
		})
	})
	if err != nil {
		return err
	}

	released := append(slices.Concat(sh.levels...), sh.dumped...)
	if sh.last != nil {
		released = append(released, sh.last)
	}
	clear(sh.levels)
	sh.dumped = nil
	sh.last = sh.wrapLast(c, newLast)
	// Fresh ABI for the same reason as dumpABI: old views pair their frozen
	// ABI with the old last level, new views pair an empty ABI with the
	// merged one.
	sh.rotateABI()
	sh.publishView()
	if sh.spillMaxLSN > sh.persistedMaxLSN {
		sh.persistedMaxLSN = sh.spillMaxLSN
	}
	sh.spillMinLSN = 0
	sh.spillMaxLSN = 0
	sh.store.stats.LastCompactions.Add(1)
	sh.store.trace.Emit(c.Now(), obs.EvLastCompact, sh.id, int64(live))
	sh.persistManifest(c)
	sh.store.em.retire(&sh.store.stats, released)
	return nil
}

// needCap returns the smallest power-of-two capacity >= minCap that keeps n
// entries at or below load factor f.
func needCap(n int, f float64, minCap int) int {
	c := 8
	for c < minCap || float64(n) > f*float64(c) {
		c <<= 1
		if c <= 0 {
			panic(fmt.Sprintf("core: capacity overflow for %d entries", n))
		}
	}
	return c
}

// designFill is the fill a designed power-of-two table is accepted at before
// it counts as outgrown: the last level, a Get-Protect dump.
const designFill = 0.85

// fitFill is the fill a fitted table is written at: a table that has
// outgrown its design, or an upper-level table of a store with an ABI. A
// fitted table is laid out in two-choice 256 B lines, where a probe reads at
// most two lines at any fill the build can place; at 0.95 a hit reads 1.01
// lines on average and a miss 1.48, against 1.04 and 1.22 (at most 4) for
// linear probing at 0.85 (EXPERIMENTS.md, "Two-choice lines").
const fitFill = 0.95

// fittedCap sizes the tables that may outgrow the configured geometry (the
// last level, a Get-Protect dump): the designed power of two while n entries
// fill it to at most designFill, and past that fitLines(n). Such a table is
// rewritten whole on every compaction and costs its capacity in media bytes
// each time; rounding it up to the next power of two would carry up to half
// a table of empty lines.
func fittedCap(n, designed int) int {
	if float64(n) <= designFill*float64(designed) {
		return designed
	}
	return fitLines(n)
}

// upperCap sizes an upper-level (L0..L(l-2)) table of n entries, tombstones
// included, designed at the power of two designed. With an ABI no get probes
// an upper table: merges, scans and the ABI rebuild read it whole, and only
// recovery's replay probes it, so it is written at fitLines(n), never above
// designed. Without one (the Pmem-LSM ablations) every get probes the upper
// tables, which keep their designed layout.
func (sh *shard) upperCap(n, designed int) int {
	if sh.store.cfg.DisableABI {
		return designed
	}
	return min(designed, fitLines(n))
}

// fitLines is the smallest fitted table that holds n entries at fitFill:
// half a line, one line, or a two-choice table of three or more whole 256 B
// lines (hashtable.FitTwoChoice).
func fitLines(n int) int {
	return hashtable.FitTwoChoice(int(math.Ceil(float64(n) / fitFill)))
}

// buildTable builds and writes back one table and books the media bytes of
// its persist under purpose; the manifest persist that publishes it is the
// barrier that makes it durable. Called with sh.mu held.
func (sh *shard) buildTable(c *simclock.Clock, purpose mediaPurpose, capSlots int, src func(yield func(hashtable.Slot) bool)) (*hashtable.PmemTable, error) {
	t, media, err := hashtable.BuildPmemTable(c, sh.store.arena, capSlots, src)
	sh.store.media[purpose].Add(media)
	return t, err
}

// stagingPools recycles compactions' DRAM staging tables, one pool per
// power-of-two capacity (index log2): a grown shard stages half a megabyte
// and more per last-level compaction, several hundred times a second.
var stagingPools [bits.UintSize]sync.Pool

func getStaging(capSlots int) *hashtable.Mem {
	if m, ok := stagingPools[bits.TrailingZeros(uint(capSlots))].Get().(*hashtable.Mem); ok {
		return m
	}
	return hashtable.NewMem(capSlots)
}

// putStaging returns a staging table no reader ever saw, so a plain Clear
// suffices.
func putStaging(m *hashtable.Mem) {
	m.Clear()
	stagingPools[bits.TrailingZeros(uint(m.Cap()))].Put(m)
}

func pow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}
