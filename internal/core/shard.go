package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"chameleondb/internal/device"
	"chameleondb/internal/hashtable"
	"chameleondb/internal/simclock"
)

// shard is one of the store's independent LSM structures (Section 2.1): a
// DRAM MemTable, persisted upper levels of immutable hash tables, one last
// level table, a DRAM Auxiliary Bypass Index covering the upper levels, and
// (under Get-Protect Mode) a bounded list of dumped ABI tables.
//
// Invariant: every live entry of the upper levels is present in the ABI or a
// dumped table, so a get never probes the upper levels in Pmem (the ABI
// bypass, Section 2.2). Version order, newest first: MemTable, frozen
// MemTables (newest first), ABI, upper levels (only while no ABI covers them:
// the no-ABI ablation, or recovery before the ABI rebuild), dumped tables
// (newest dump first), last level. publishView is the one place that order
// is written down.
type shard struct {
	store *Store
	id    int

	mu sync.Mutex
	tl simclock.Timeline // virtual-time critical section (writers queue on it)

	mem     *hashtable.Mem
	abi     *hashtable.Mem
	abiHeld float64     // share of the last batch absorbed that the ABI held
	levels  [][]*ptable // levels[0] = L0 ... levels[l-2]
	last    *ptable     // nil until first last-level compaction
	dumped  []*ptable   // GPM ABI dumps, oldest first

	// frozen holds full MemTables rotated out of the put path, oldest first,
	// each awaiting its flush/spill job. Empty between operations when the
	// jobs run inline (MaintenanceWorkers == 0) and after a drain barrier.
	// Purely volatile: a crash wipes it, and recovery replays its entries
	// from the log like any other MemTable content.
	frozen []*frozenMem

	// view is the atomically published read snapshot of the fields above.
	// The lock-free get path loads it once and probes only through it;
	// every structural mutation (flush, spill, dump, compaction, wipe,
	// recovery) rebuilds and stores a fresh shardView while holding mu.
	view atomic.Pointer[shardView]

	lfThreshold float64

	// recoverLSN is the persisted watermark: every entry of this shard with
	// a smaller LSN is already in a persisted table, so crash recovery
	// replays the log only from here (conservatively; see persistManifest).
	recoverLSN int64
	// replayFilter freezes the manifest watermark for the duration of a
	// recovery replay: flushes during replay advance recoverLSN, which must
	// not cause later unreplayed entries to be skipped.
	replayFilter int64
	// memMinLSN is the smallest LSN resident in the MemTable (0 = empty);
	// spillMinLSN the smallest LSN spilled into the ABI without an L0 table
	// (0 = none). Both hold the watermark back until their entries persist.
	memMinLSN   int64
	spillMinLSN int64
	// memMaxLSN / spillMaxLSN track the newest entry in the MemTable / the
	// ABI's unpersisted spills; persistedMaxLSN is the newest LSN present in
	// any persisted table. A replayed log entry newer than persistedMaxLSN
	// cannot be superseded by a table, so recovery skips the (expensive)
	// supersession probes for the common case.
	memMaxLSN       int64
	spillMaxLSN     int64
	persistedMaxLSN int64

	// abiBehind is set between readManifest reattaching upper tables and
	// Recover's ABI rebuild: the post-crash ABI holds only what replay has
	// flushed so far, not the reattached tables' entries, so the view lists
	// the upper levels too — a last-level compaction that replay triggers
	// must read those tables from Pmem or it would merge them away unread.
	abiBehind bool

	manifest     manifestSlots
	pendingMerge atomic.Bool

	// asyncNs accumulates, within the current locked operation, the virtual
	// time spent on background work: flushes and compactions. The paper
	// pairs every put thread with a compaction thread on the same core
	// (Section 3.3), so this time stalls the *triggering worker's* clock but
	// is excluded from the shard's critical-section reservation — other
	// workers' puts and gets to the shard are not blocked behind a
	// compaction, exactly as an LSM's immutable-table maintenance allows.
	asyncNs int64
}

// shardView is an immutable snapshot of a shard's index structures, published
// whole so a reader sees a self-consistent generation: a MemTable always
// paired with the tables that cover exactly the entries it lacks. Its tiers
// are the shard's version order, newest first; every reader — the get probe,
// the snapshot merge, the last-level merge, recovery and the DRAM gauge —
// walks that list. The Mem tables referenced by an old view are never mutated
// destructively — structural changes swap in fresh tables (the ABI only ever
// gains entries in place, which old-view readers may legally observe as newer
// versions) — and the ptables' arena space is reclaimed through the epoch
// manager, so a reader may keep probing a superseded view until it unpins.
type shardView struct {
	tiers []tier // newest first; backed by buf unless the shard holds more
	// buf keeps the list in the view's own allocation. Nine tiers make the
	// view 256 bytes, a size class whose objects are cache-line aligned, so
	// with no frozen tables a get that ends in the MemTable or the ABI reads
	// only the view's first 64 bytes: the list header, the MemTable's tier
	// and the ABI's src and mem.
	buf [9]tier
	// frozen and l0 count the frozen MemTables and L0 tables: the debt put
	// backpressure reads (throttle).
	frozen, l0 int
}

// tier is one step of the version order: a DRAM table (mem) or a persisted
// one (p), and the source a get that hits it counts under. src and mem lead
// so that a DRAM tier's probe reads only its first 16 bytes.
type tier struct {
	src getSource
	mem *hashtable.Mem
	p   *ptable
}

// scan yields every slot of the tier; a persisted table is charged as one
// sequential read first.
func (t *tier) scan(c *simclock.Clock, fn func(hashtable.Slot) bool) {
	if t.mem != nil {
		t.mem.Iterate(fn)
		return
	}
	t.p.t.ChargeScan(c)
	t.p.t.Iterate(fn)
}

func (t *tier) len() int {
	if t.mem != nil {
		return t.mem.Len()
	}
	return t.p.t.Len()
}

// belowMem is the view's tiers from the ABI down: what a last-level merge
// folds into the new last level.
func (v *shardView) belowMem() []tier {
	i := 0
	for i < len(v.tiers) && v.tiers[i].src == srcMemTable {
		i++
	}
	return v.tiers[i:]
}

// abi returns the view's ABI, nil when the ABI is disabled.
func (v *shardView) abi() *hashtable.Mem {
	for _, t := range v.tiers {
		if t.src == srcABI {
			return t.mem
		}
	}
	return nil
}

// frozenMem is a MemTable the put path rotated out, with the LSN range its
// entries cover: minLSN holds the recovery watermark back until the table's
// flush persists it, maxLSN advances persistedMaxLSN when it does. The table
// itself is immutable once frozen (only the single writer under sh.mu ever
// inserted into it, and it was rotated away under the same lock), so readers
// probe it without seqlock retries ever failing.
type frozenMem struct {
	mem    *hashtable.Mem
	minLSN int64
	maxLSN int64
}

// publishView lists the shard's current structure in version order, newest
// first, into a fresh view and stores it atomically: the one function that
// builds the order. The upper levels are listed only while no ABI covers
// them — without an ABI (ablation), or after recovery reattached them and
// before the ABI rebuild. Called with sh.mu held after every structural
// mutation.
func (sh *shard) publishView() {
	v := &shardView{frozen: len(sh.frozen), l0: len(sh.levels[0])}
	v.tiers = append(v.buf[:0], tier{mem: sh.mem, src: srcMemTable})
	for i := len(sh.frozen) - 1; i >= 0; i-- {
		// Frozen hits count as MemTable hits: the same table, rotated out.
		v.tiers = append(v.tiers, tier{mem: sh.frozen[i].mem, src: srcMemTable})
	}
	if sh.abi != nil {
		v.tiers = append(v.tiers, tier{mem: sh.abi, src: srcABI})
	}
	if sh.abi == nil || sh.abiBehind {
		for _, lvl := range sh.levels {
			for i := len(lvl) - 1; i >= 0; i-- {
				v.tiers = append(v.tiers, tier{p: lvl[i], src: srcUpper})
			}
		}
	}
	for i := len(sh.dumped) - 1; i >= 0; i-- {
		v.tiers = append(v.tiers, tier{p: sh.dumped[i], src: srcDumped})
	}
	if sh.last != nil {
		v.tiers = append(v.tiers, tier{p: sh.last, src: srcLast})
	}
	sh.view.Store(v)
	sh.store.stats.ViewPublishes.Add(1)
}

// rotateMem swaps in an empty MemTable after the current one's entries have
// moved into the ABI and/or an L0 table, leaving the old table frozen for
// readers holding a previous view. Called with sh.mu held; the caller
// publishes the view.
func (sh *shard) rotateMem() {
	sh.mem = hashtable.NewMem(sh.store.cfg.MemTableSlots)
	sh.memMinLSN = 0
	sh.memMaxLSN = 0
}

// rotateABI swaps in an empty ABI after a dump or last-level compaction
// cleared it, freezing the old table for prior views (an in-place Reset would
// make entries vanish from a view whose dump list does not yet cover them).
// The new table starts small, like one made at boot or after a crash, and
// grows again with what it holds. Called with sh.mu held; the caller
// publishes the view.
func (sh *shard) rotateABI() { sh.abi, sh.abiHeld = newABI(sh.store.cfg), 0 }

// newABI returns an empty ABI of cfg.abiStartSlots() slots, or nil for a
// store without one. Every ABI starts there: at boot, after a crash and after
// each clear (DESIGN.md §3).
func newABI(cfg Config) *hashtable.Mem {
	if cfg.DisableABI {
		return nil
	}
	return hashtable.NewFittedMem(cfg.abiStartSlots())
}

// abiMaxFill is the load factor an ABI grows to, and the one a
// linear-probing ABI below its cap — the power-of-two table it starts at — is
// kept under: such a table expects ½(1 + 1/(1−α)²) slots probed per new key,
// 8.5 at ¾ against 50.5 at abiFullFraction. A fitted ABI (whole lines, not a
// power of two) is a two-choice table in 64 B buckets, whose probes read at
// most two buckets at any fill and whose placements first fail near 0.95, so
// it is kept under abiFullFraction, the fill at which an ABI at its cap is
// cleared (DESIGN.md §3).
const abiMaxFill = 0.75

// growABI makes room for n more ABI entries. While Len+n stays within
// abiFullFraction of a fitted ABI's capacity (abiMaxFill of a power of two's),
// or the ABI is at cfg.ABISlots, it does nothing; otherwise the entries move
// into a fresh table of the two-choice lines that hold Len+n at abiMaxFill,
// capped at cfg.ABISlots (moveABI): three quarters full once the n are in.
// So below its cap a fitted ABI is at most nine tenths full before each
// insert (abiInsert). Called with sh.mu held.
func (sh *shard) growABI(c *simclock.Clock, n int) error {
	old, need, keep := sh.abi, sh.abi.Len()+n, abiMaxFill
	if old.TwoChoice() {
		keep = abiFullFraction
	}
	if old.Cap() >= sh.store.cfg.ABISlots || float64(need) <= keep*float64(old.Cap()) {
		return nil
	}
	return sh.moveABI(c, hashtable.FitTwoChoice(int(math.Ceil(float64(need)/abiMaxFill))), &sh.store.stats.ABIMovesGrown)
}

// moveABI moves the ABI's entries into a fresh table of min(capacity,
// cfg.ABISlots) slots, counting the copy under cause. When an entry finds no
// room there — a two-choice placement whose displacement failed — it starts
// over one two-choice size up, counted as a failed placement; the cap is a
// power of two larger than the old table, so there every entry fits. Each
// copy is charged as a sequential read of the old bytes and write of the
// new; views published before keep the old table, which is never written
// again, and the caller publishes the new one. Called with sh.mu held.
func (sh *shard) moveABI(c *simclock.Clock, capacity int, cause *atomic.Int64) error {
	old, limit := sh.abi, sh.store.cfg.ABISlots
	for {
		cause.Add(1)
		cause = &sh.store.stats.ABIMovesFailed
		t := hashtable.NewFittedMem(min(capacity, limit))
		ok := true
		old.Iterate(func(s hashtable.Slot) bool {
			_, ok = t.Insert(s.Hash, s.Ref)
			return ok
		})
		c.Advance(int64(float64(old.DRAMFootprint()+t.DRAMFootprint()) * device.CostDRAMSeqPerByte))
		if ok {
			sh.abi = t
			return nil
		}
		if t.Cap() >= limit {
			return sh.errABIFull()
		}
		capacity = hashtable.FitTwoChoice(t.Cap() + 1)
	}
}

func (sh *shard) errABIFull() error {
	return fmt.Errorf("core: shard %d: ABI full at its %d-slot cap", sh.id, sh.store.cfg.ABISlots)
}

// abiInsert indexes one entry in the ABI, charging its DRAM probes: the entry
// replaces an older version of its hash, or with ifAbsent (the recovery
// rebuild, which meets newer versions first) yields to one. The ABI grows
// first for the ahead entries this one and the rest of its batch are
// expected to add, and one two-choice size up when the entry finds no room;
// an ABI full at its cap is an error, never a dropped entry. Called with
// sh.mu held.
func (sh *shard) abiInsert(c *simclock.Clock, s hashtable.Slot, ifAbsent bool, ahead int) error {
	if err := sh.growABI(c, ahead); err != nil {
		return err
	}
	for {
		insert := sh.abi.Insert
		if ifAbsent {
			insert = sh.abi.InsertIfAbsent
		}
		probes, ok := insert(s.Hash, s.Ref)
		c.Advance(device.DRAMProbeCost(probes))
		if ok {
			return nil
		}
		if sh.abi.Cap() >= sh.store.cfg.ABISlots {
			return sh.errABIFull()
		}
		if err := sh.moveABI(c, hashtable.FitTwoChoice(sh.abi.Cap()+1), &sh.store.stats.ABIMovesFailed); err != nil {
			return err
		}
	}
}

// abiAbsorb indexes every entry of a frozen MemTable in the ABI, growing it
// first, at each entry, for the entries left times the share of the last
// batch it did not hold (abiHeld). A batch that grew it yet updated held
// entries moves back into the fitted table it started in if that holds them.
// A batch that gained no entry after one that gained none either settles it
// (settleABI). Called with sh.mu held; the caller publishes the view.
func (sh *shard) abiAbsorb(c *simclock.Clock, m *hashtable.Mem) error {
	var err error
	rest, before, start, quiet := m.Len(), sh.abi.Len(), sh.abi.Cap(), sh.abiHeld == 1
	m.Iterate(func(s hashtable.Slot) bool {
		err = sh.abiInsert(c, s, false, int(math.Ceil(float64(rest)*(1-sh.abiHeld))))
		rest--
		return err == nil
	})
	sh.abiHeld = 1 - float64(sh.abi.Len()-before)/float64(m.Len())
	switch {
	case err != nil:
		return err
	case quiet && sh.abiHeld == 1:
		return sh.settleABI(c)
	case sh.abiHeld == 0 || sh.abi.Cap() <= start || start&(start-1) == 0 ||
		float64(sh.abi.Len()) > abiFullFraction*float64(start):
		return nil
	}
	return sh.moveABI(c, start, &sh.store.stats.ABIMovesBack)
}

// settleABI moves the ABI into the smallest two-choice table that holds what
// it has at abiFullFraction, when that table is smaller than the current one:
// an ABI that has stopped gaining entries gives back the room a growth left
// it. It never settles into a power-of-two table (half a line or one), which
// is kept under abiMaxFill. Called with sh.mu held; the caller publishes the
// view.
func (sh *shard) settleABI(c *simclock.Clock) error {
	fit := hashtable.FitTwoChoice(int(math.Ceil(float64(sh.abi.Len()) / abiFullFraction)))
	if fit >= sh.abi.Cap() || fit&(fit-1) == 0 {
		return nil
	}
	return sh.moveABI(c, fit, &sh.store.stats.ABIMovesSettled)
}

// async brackets background work: it runs fn (charging c as usual) and
// moves the elapsed time into sh.asyncNs so the session excludes it from the
// critical-section reservation. Brackets never nest — a job run inline opens
// none of its own — or the time would be excluded twice. Called with sh.mu
// held.
func (sh *shard) async(c *simclock.Clock, fn func() error) error {
	t0 := c.Now()
	err := fn()
	sh.asyncNs += c.Now() - t0
	return err
}

func newShard(s *Store, id int, boot *simclock.Clock) (*shard, error) {
	sh := bareShard(s, id)
	if err := sh.manifestAlloc(); err != nil {
		return nil, err
	}
	sh.persistManifest(boot)
	sh.publishView()
	return sh, nil
}

// attachShard builds a shard over existing durable state: the manifest slots
// were allocated by a previous incarnation of the process (their location
// comes from the backend's host-metadata record), and nothing is persisted at
// boot — the durable manifests are the recovery input, not output. The shard
// serves nothing until Recover runs readManifest and replay.
func attachShard(s *Store, id int, slots manifestSlots) *shard {
	sh := bareShard(s, id)
	sh.manifest = slots
	sh.publishView()
	return sh
}

// bareShard builds the volatile shell every shard starts from.
func bareShard(s *Store, id int) *shard {
	return &shard{
		store:       s,
		id:          id,
		mem:         hashtable.NewMem(s.cfg.MemTableSlots),
		levels:      make([][]*ptable, s.cfg.Levels-1),
		lfThreshold: s.cfg.loadFactorFor(id),
		recoverLSN:  s.log.Base(),
		abi:         newABI(s.cfg),
	}
}

// volatileWipe models the loss of DRAM state at a crash; the ABI starts
// small again.
func (sh *shard) volatileWipe() {
	sh.mem = hashtable.NewMem(sh.store.cfg.MemTableSlots)
	sh.abi, sh.abiHeld = newABI(sh.store.cfg), 0
	clear(sh.levels)
	sh.last = nil
	sh.dumped = nil
	sh.frozen = nil
	sh.memMinLSN = 0
	sh.spillMinLSN = 0
	sh.memMaxLSN = 0
	sh.spillMaxLSN = 0
	sh.pendingMerge.Store(false)
	sh.publishView()
}

// insertMem indexes one log entry in the MemTable, charging DRAM probe
// costs, and freezes the table when the randomized load-factor threshold is
// reached. Called with sh.mu held; the caller has already appended to the
// log.
func (sh *shard) insertMem(c *simclock.Clock, h uint64, lsn int64, tombstone bool) error {
	if sh.memMinLSN == 0 || lsn < sh.memMinLSN {
		sh.memMinLSN = lsn
	}
	if lsn > sh.memMaxLSN {
		sh.memMaxLSN = lsn
	}
	ref := hashtable.MakeRef(lsn, tombstone)
	probes, ok := sh.mem.Insert(h, ref)
	c.Advance(device.DRAMProbeCost(probes))
	if !ok {
		// Can't happen while thresholds < 1.0, but handle it: force a flush
		// and retry once.
		if err := sh.memTableFull(c); err != nil {
			return err
		}
		probes, _ = sh.mem.Insert(h, ref)
		c.Advance(device.DRAMProbeCost(probes))
	}
	if sh.mem.LoadFactor() >= sh.lfThreshold {
		return sh.memTableFull(c)
	}
	return nil
}

// memTableFull freezes the full MemTable and schedules the job that flushes
// or spills it: on the pool when one is active, otherwise inline under this
// bracket. Called with sh.mu held.
func (sh *shard) memTableFull(c *simclock.Clock) error {
	sh.freezeMem()
	return sh.async(c, func() error { return sh.schedule(c, maintFlush) })
}

// freezeMem rotates the live MemTable into the frozen list and publishes the
// new view (an empty MemTable in front of the frozen one — readers see every
// entry exactly where version order expects it). An empty MemTable is not
// frozen. Called with sh.mu held.
func (sh *shard) freezeMem() {
	if sh.mem.Len() == 0 {
		return
	}
	sh.frozen = append(sh.frozen, &frozenMem{mem: sh.mem, minLSN: sh.memMinLSN, maxLSN: sh.memMaxLSN})
	sh.rotateMem()
	sh.publishView()
}

// flushAll freezes the live MemTable and flushes every frozen table to L0,
// oldest first, whatever the mode: the checkpoint FlushAll and log GC take.
// Called with sh.mu held.
func (sh *shard) flushAll(c *simclock.Clock) error {
	sh.freezeMem()
	for len(sh.frozen) > 0 {
		if err := sh.flushFrozen(c); err != nil {
			return err
		}
	}
	return nil
}

// lookup performs the index lookup against the shard's published view,
// returning the winning slot (possibly a tombstone) and which structure
// produced it. This is the lock-free read path: it takes no lock and probes
// only the immutable snapshot. Callers that run concurrently with writers
// must pin a reader epoch around the call (Session.Get); maintenance paths
// (GC, verify) call it with sh.mu held, where the latest published view is
// by construction the current structure.
func (sh *shard) lookup(c *simclock.Clock, h uint64) (hashtable.Slot, getSource, bool) {
	return sh.lookupView(c, sh.view.Load(), h, 0)
}

// lookupView walks one immutable view's tiers in version order and returns
// the (skip+1)-th whose table holds hash h. skip == 0 is the plain lookup;
// larger skips let the collision fallback (shard.resolve) step past a
// candidate whose full key turned out not to match and keep probing older
// tiers, since a 64-bit hash match does not prove key identity. The caller
// owns the view's lifetime (epoch pin or sh.mu).
func (sh *shard) lookupView(c *simclock.Clock, v *shardView, h uint64, skip int) (hashtable.Slot, getSource, bool) {
	for _, t := range v.tiers {
		s, ok := hashtable.Slot{Hash: h}, false
		if t.mem != nil {
			var probes int
			s.Ref, probes, ok = t.mem.Get(h)
			c.Advance(device.DRAMProbeCost(probes))
		} else {
			s, ok = t.p.get(c, h)
		}
		if ok {
			if skip == 0 {
				return s, t.src, true
			}
			skip--
		}
	}
	return hashtable.Slot{}, srcMiss, false
}

type getSource int

const (
	srcMemTable getSource = iota
	srcABI
	srcDumped
	srcUpper
	srcLast
	srcMiss
	numGetSources = int(srcMiss) + 1
)

func (g getSource) String() string {
	switch g {
	case srcMemTable:
		return "memtable"
	case srcABI:
		return "abi"
	case srcDumped:
		return "dumped"
	case srcUpper:
		return "upper"
	case srcLast:
		return "last"
	}
	return "miss"
}
