package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"chameleondb/internal/hashtable"
	"chameleondb/internal/simclock"
)

// abiCaps returns every shard's published ABI capacity.
func abiCaps(s *Store) []int {
	caps := make([]int, len(s.shards))
	for i, sh := range s.shards {
		caps[i] = sh.view.Load().abi().Cap()
	}
	return caps
}

// TestABIInsertFailsLoudlyAtCap: an ABI insert grows a full table below its
// cap, and at the cap refuses the entry with an error instead of dropping it.
func TestABIInsertFailsLoudlyAtCap(t *testing.T) {
	s := openTest(t, func(c *Config) { c.ABISlots = 128 })
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := simclock.New(0)
	if got := sh.abi.Cap(); got != s.cfg.MemTableSlots {
		t.Fatalf("fresh ABI has %d slots, want one MemTable's %d", got, s.cfg.MemTableSlots)
	}
	slot := func(i int) hashtable.Slot {
		return hashtable.Slot{Hash: uint64(i)*0x9e3779b97f4a7c15 + 1, Ref: hashtable.MakeRef(int64(i+1), false)}
	}
	for i := 0; i < 128; i++ {
		if err := sh.abiInsert(c, slot(i), false, 1); err != nil {
			t.Fatalf("insert %d into a %d-slot ABI: %v", i, sh.abi.Cap(), err)
		}
	}
	if sh.abi.Cap() != 128 || sh.abi.Len() != 128 {
		t.Fatalf("ABI holds %d of %d slots, want 128 of 128", sh.abi.Len(), sh.abi.Cap())
	}
	if err := sh.abiInsert(c, slot(128), false, 1); err == nil {
		t.Fatal("an ABI full at its cap accepted a new entry")
	}
	if err := sh.abiInsert(c, slot(128), true, 1); err == nil {
		t.Fatal("an ABI full at its cap accepted a new entry (if absent)")
	}
	// Versions of hashes already present still land.
	if err := sh.abiInsert(c, slot(5), false, 1); err != nil {
		t.Fatalf("update in a full ABI: %v", err)
	}
	if err := sh.abiInsert(c, slot(6), true, 1); err != nil {
		t.Fatalf("present hash in a full ABI: %v", err)
	}
	for i := 0; i < 128; i++ {
		if _, _, ok := sh.abi.Get(slot(i).Hash); !ok {
			t.Fatalf("entry %d dropped", i)
		}
	}
}

// TestABIGrowsPastFailedPlacements: hashes whose two buckets are 0 and 1 in
// every two-choice table (low 32 bits 1, bits 32..49 zero) fill eight slots
// of any fitted ABI, and no more. The ninth insert finds no room below the
// cap, so abiInsert takes the next two-choice size up, and up again, until the
// power-of-two cap holds it; a growth whose copy meets the same wall steps up
// the same way. No entry is dropped and no error is returned below the cap.
func TestABIGrowsPastFailedPlacements(t *testing.T) {
	s := openTest(t, func(c *Config) { c.ABISlots = 128 })
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := simclock.New(0)
	wall := func(i int) hashtable.Slot {
		return hashtable.Slot{Hash: uint64(i+1)<<50 | 1, Ref: hashtable.MakeRef(int64(i+1), false)}
	}
	check := func(path string) {
		t.Helper()
		if sh.abi.Cap() != s.cfg.ABISlots || sh.abi.Len() != 9 {
			t.Fatalf("%s: the ABI holds %d entries in %d slots, want 9 in its %d-slot cap", path, sh.abi.Len(), sh.abi.Cap(), s.cfg.ABISlots)
		}
		for i := range 9 {
			if ref, _, ok := sh.abi.Get(wall(i).Hash); !ok || ref != wall(i).Ref {
				t.Fatalf("%s: entry %d dropped", path, i)
			}
		}
	}

	if err := sh.moveABI(c, 80, &s.stats.ABIMovesGrown); err != nil || !sh.abi.TwoChoice() {
		t.Fatalf("moving the ABI to 80 slots: %v, two-choice %v", err, sh.abi.TwoChoice())
	}
	for i := range 9 {
		if err := sh.abiInsert(c, wall(i), false, 1); err != nil {
			t.Fatalf("insert %d into a %d-slot ABI: %v", i, sh.abi.Cap(), err)
		}
	}
	check("insert")

	sh.abi = hashtable.NewFittedMem(s.cfg.abiStartSlots())
	for i := range 9 {
		if err := sh.abiInsert(c, wall(i), false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if sh.abi.Cap() != s.cfg.abiStartSlots() || sh.abi.TwoChoice() {
		t.Fatalf("nine entries grew the %d-slot start table to %d slots", s.cfg.abiStartSlots(), sh.abi.Cap())
	}
	if err := sh.growABI(c, 40); err != nil {
		t.Fatal(err)
	}
	check("copy")
}

// servingLoad opens a store of the serving geometry (64 shards, 512-slot
// MemTables, 32768-slot ABI cap, 200 k keys designed), loads its 200 k keys
// and then applies updates scattered over them.
func servingLoad(t *testing.T, updates int) *Store {
	t.Helper()
	const keys = 200_000
	s, err := Open(ScaledConfig(64, keys, 8))
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	for u := 0; u < keys+updates; u++ {
		i := u
		if u >= keys {
			i = int(uint32(u) * 2654435761 % keys)
		}
		if err := se.Put(key(i), val(u)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// abiSlotsPerEntry returns every shard's published ABI capacity and entry
// count, summed, and their ratio.
func abiSlotsPerEntry(s *Store) (slots, entries int, ratio float64) {
	for _, sh := range s.shards {
		abi := sh.view.Load().abi()
		slots += abi.Cap()
		entries += abi.Len()
	}
	return slots, entries, float64(slots) / float64(entries)
}

// TestABIGrowsToOccupancy: at the serving geometry 200 k keys and as many
// updates leave the ABIs, summed, at least three quarters full — the fill
// each grows to: a batch of updates leaves its ABI in the table it started
// in (abiAbsorb). At the test geometry (8 shards, ABI cap 1024) a keyset that
// outgrows the design keeps every fitted ABI below its cap at most nine
// tenths full after every flush (a power-of-two one three quarters), makes
// every growth land at three quarters full within one two-choice step — the
// smallest line-granular two-choice capacity that holds the entries at
// abiMaxFill — and takes no ABI past its cap; a crash starts them small
// again. (An ABI need not reach its cap: a last-level compaction the upper
// levels force clears it first.)
func TestABIGrowsToOccupancy(t *testing.T) {
	s := servingLoad(t, 200_000)
	slots, entries, ratio := abiSlotsPerEntry(s)
	t.Logf("ABIs at 200 k keys: %d slots for %d entries, %.3f slots per entry", slots, entries, ratio)
	if ratio > 1/abiMaxFill {
		t.Fatalf("the ABIs hold %d entries in %d slots, %.3f slots per entry: under three quarters full", entries, slots, ratio)
	}

	s = openTest(t) // 8 shards, ABI cap 1024, ~7 k keys designed
	se := s.NewSession(simclock.New(0))
	caps := abiCaps(s)
	grown, lines, restarts, sized := 0, 0, 0, 0
	for i := 0; i < 20_000; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		for id, sh := range s.shards {
			abi := sh.view.Load().abi()
			c, n := abi.Cap(), abi.Len()
			switch {
			case c > s.cfg.ABISlots:
				t.Fatalf("put %d: shard %d's ABI has %d slots, cap %d", i, id, c, s.cfg.ABISlots)
			case c < s.cfg.ABISlots && abi.TwoChoice() && 10*n > 9*c:
				t.Fatalf("put %d: shard %d's fitted ABI holds %d of %d slots, over nine tenths below its cap", i, id, n, c)
			case c < s.cfg.ABISlots && !abi.TwoChoice() && 4*n > 3*c:
				t.Fatalf("put %d: shard %d's ABI holds %d of %d slots, over three quarters below its cap", i, id, n, c)
			}
			if c == caps[id] {
				continue
			}
			// Distinct keys: the ABI holds exactly the entries it grew for,
			// unless a last-level compaction in the same put has cleared it
			// since.
			if n > 0 && c < s.cfg.ABISlots {
				if want := hashtable.FitTwoChoice(int(math.Ceil(float64(n) / abiMaxFill))); c != want {
					t.Fatalf("put %d: shard %d's ABI grew %d -> %d slots for %d entries, want %d: three quarters full within a two-choice step", i, id, caps[id], c, n, want)
				}
				sized++
			}
			if c < caps[id] {
				restarts++ // cleared, and restarted small
			} else {
				grown++
				if c&(c-1) != 0 {
					lines++
				}
			}
			caps[id] = c
		}
	}
	t.Logf("%d ABI growths, %d of them to a line-granular capacity, %d restarts after a clear, %d checked for their fill; final capacities %v", grown, lines, restarts, sized, caps)
	if lines == 0 || sized == 0 {
		t.Fatal("no ABI grew to a capacity that is not a power of two, or no growth's fill was checked")
	}
	s.Crash()
	for sh, c := range abiCaps(s) {
		if c != s.cfg.abiStartSlots() {
			t.Fatalf("shard %d's ABI has %d slots after a crash, want %d", sh, c, s.cfg.abiStartSlots())
		}
	}
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyIntegrity(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredABIKeepsItsSize: a recovery rebuild meets every upper-level
// table, and the older ones hold versions the ABI already has. Growing once
// ahead of all of them and settling once they are in, the rebuild makes no
// more growths, and no more settles, than there are shards, and the rebuilt
// ABIs of a store loaded with 200 k keys and 400 k updates take, summed, no
// more slots than the smallest two-choice tables that hold their entries at
// abiFullFraction, plus one two-choice size for each placement that found no
// room.
func TestRecoveredABIKeepsItsSize(t *testing.T) {
	s := servingLoad(t, 400_000)
	before, entries, _ := abiSlotsPerEntry(s)
	s.Crash()
	moves := s.Stats()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	_, full := s.RecoverTimes()
	st := s.Stats()
	grown, failed := st.ABIMovesGrown-moves.ABIMovesGrown, st.ABIMovesFailed-moves.ABIMovesFailed
	back, settled := st.ABIMovesBack-moves.ABIMovesBack, st.ABIMovesSettled-moves.ABIMovesSettled
	after, rebuilt, _ := abiSlotsPerEntry(s)
	fitted, steps := 0, int64(0)
	for _, sh := range s.shards {
		abi := sh.view.Load().abi()
		fit := hashtable.FitTwoChoice(int(math.Ceil(float64(abi.Len()) / abiFullFraction)))
		fitted += fit
		for size := fit; size < abi.Cap(); size = hashtable.FitTwoChoice(size + 1) {
			steps++
		}
	}
	t.Logf("ABI slots %d for %d entries before the crash, %d for %d after recovery (settled sizes %d); rebuild moves: %d grown, %d failed placements, %d back, %d settled; full recovery %.2f ms virtual",
		before, entries, after, rebuilt, fitted, grown, failed, back, settled, float64(full)/1e6)
	shards := int64(len(s.shards))
	if grown > shards || settled > shards || back != 0 {
		t.Fatalf("the rebuild of %d shards grew their ABIs %d times, settled them %d times and moved them back %d times: more than two moves a shard", shards, grown, settled, back)
	}
	if steps > failed {
		t.Fatalf("recovery rebuilt the ABIs into %d slots, %d two-choice sizes above their settled %d, with %d failed placements", after, steps, fitted, failed)
	}
	// 34.37 ms is the rebuild that grew ahead for every table in full,
	// into ABIs 85 % larger.
	if full > 34_370_000 {
		t.Fatalf("full recovery took %.2f ms virtual, over 34.37 ms", float64(full)/1e6)
	}
}

// absorbBatches returns a batch of n hashes numbered from, and a function
// that absorbs one into shard 0's ABI; the caller holds its lock.
func absorbBatches(t *testing.T, sh *shard, c *simclock.Clock, n int) func(from int) {
	batch := func(from int) *hashtable.Mem {
		m := hashtable.NewMem(2 * n)
		for i := from; i < from+n; i++ {
			m.Insert(uint64(i+1)*0x9e3779b97f4a7c15, hashtable.MakeRef(int64(i+1), false))
		}
		return m
	}
	return func(from int) {
		t.Helper()
		if err := sh.abiAbsorb(c, batch(from)); err != nil {
			t.Fatal(err)
		}
	}
}

// abiMoves is the store's ABI moves so far, summed over their causes.
func abiMoves(s *Store) int64 {
	st := s.Stats()
	return st.ABIMovesGrown + st.ABIMovesFailed + st.ABIMovesBack + st.ABIMovesSettled
}

// TestABIUpdateBatchMovesBack: a frozen MemTable that follows batches of new
// hashes is grown for in full before its first entry. When its entries turn
// out to update hashes the ABI holds, the ABI moves back into the fitted
// table it started in; the next batch of updates, the second in a row,
// settles it into the smallest two-choice table that holds it at
// abiFullFraction; a third leaves the table as it is, unmoved; and the next
// batch of new hashes grows it as it adds them.
func TestABIUpdateBatchMovesBack(t *testing.T) {
	s := openTest(t)
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	const n = 40
	absorb := absorbBatches(t, sh, simclock.New(0), n)
	next := 0
	for !sh.abi.TwoChoice() || float64(sh.abi.Len()+n) <= abiFullFraction*float64(sh.abi.Cap()) {
		absorb(next)
		next += n
	}
	if sh.abiHeld != 0 {
		t.Fatalf("batches of new hashes left abiHeld %v, want 0", sh.abiHeld)
	}
	start, held := sh.abi.Cap(), sh.abi.Len()
	absorb(next - n) // the last batch's hashes again
	if sh.abi.Cap() != start || sh.abi.Len() != held || sh.abiHeld != 1 {
		t.Fatalf("a batch of updates left the ABI at %d of %d slots (abiHeld %v), want %d of %d (1)", sh.abi.Len(), sh.abi.Cap(), sh.abiHeld, held, start)
	}
	absorb(next - n)
	fit := hashtable.FitTwoChoice(int(math.Ceil(float64(held) / abiFullFraction)))
	if sh.abi.Cap() != fit || sh.abi.Len() != held || s.Stats().ABIMovesSettled != 1 {
		t.Fatalf("a second batch of updates left the ABI at %d of %d slots after %d settles, want %d of %d after 1", sh.abi.Len(), sh.abi.Cap(), s.Stats().ABIMovesSettled, held, fit)
	}
	table := sh.abi
	absorb(next - n)
	if sh.abi != table {
		t.Fatalf("a third batch of updates moved the ABI (%d slots, from %d)", sh.abi.Cap(), fit)
	}
	absorb(next)
	if sh.abi.Len() != held+n || sh.abi.Cap() <= fit || sh.abiHeld != 0 {
		t.Fatalf("a batch of new hashes left the ABI at %d of %d slots (abiHeld %v), want %d entries in more than %d", sh.abi.Len(), sh.abi.Cap(), sh.abiHeld, held+n, fit)
	}
}

// TestABISettles: an ABI that holds ten batches' worth of entries, fed
// cycles of a batch of new hashes and two batches of updates, moves at most
// twice a cycle — a growth for the new hashes and the settle after the second
// batch of updates — and ends each cycle in the smallest two-choice table
// that holds it at abiFullFraction. (Against a smaller ABI the first batch of
// updates also grows ahead and moves back: four moves.) Fed batches that
// alternate new hashes and updates, it never settles.
func TestABISettles(t *testing.T) {
	const n, cycles = 40, 8
	for _, quiet := range []int{2, 1} {
		s := openTest(t)
		sh := s.shards[0]
		sh.mu.Lock()
		absorb := absorbBatches(t, sh, simclock.New(0), n)
		next := 0
		for sh.abi.Len() < 10*n {
			absorb(next)
			next += n
		}
		for cycle := range cycles {
			moves := abiMoves(s)
			absorb(next)
			for range quiet {
				absorb(next)
			}
			next += n
			moved := abiMoves(s) - moves
			fit := hashtable.FitTwoChoice(int(math.Ceil(float64(sh.abi.Len()) / abiFullFraction)))
			switch {
			case quiet == 2 && (moved > 2 || sh.abi.Cap() != fit):
				t.Fatalf("cycle %d: new, quiet, quiet batches moved the ABI %d times and left it in %d slots for %d entries, want at most 2 and %d", cycle, moved, sh.abi.Cap(), sh.abi.Len(), fit)
			case quiet == 1 && s.Stats().ABIMovesSettled != 0:
				t.Fatalf("cycle %d: alternating new and quiet batches settled the ABI %d times", cycle, s.Stats().ABIMovesSettled)
			}
		}
		st := s.Stats()
		t.Logf("%d quiet batches a cycle: ABI moves grown %d, failed placement %d, back %d, settled %d; %d entries in %d slots",
			quiet, st.ABIMovesGrown, st.ABIMovesFailed, st.ABIMovesBack, st.ABIMovesSettled, sh.abi.Len(), sh.abi.Cap())
		sh.mu.Unlock()
	}
}

// TestClearedABIRestartsSmall: an ABI cleared by a Get-Protect dump, and
// again by a last-level compaction, restarts empty at abiStartSlots() instead
// of at the capacity it had grown to. A view pinned before each clear still
// answers every hash its ABI held from that frozen table, and afterwards the
// ABI grows again past a two-choice size.
func TestClearedABIRestartsSmall(t *testing.T) {
	s := openTest(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	sh := s.shards[0]
	abi := func() *hashtable.Mem { return sh.view.Load().abi() }
	next, after := 0, "boot"
	regrow := func() {
		t.Helper()
		for start := next; !abi().TwoChoice(); next++ {
			if next-start > 20_000 {
				t.Fatalf("after %s: shard 0's ABI never grew past %d slots", after, abi().Cap())
			}
			if err := se.Put(key(next), val(next)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range []struct {
		name string
		run  func() error
		done func() bool // the clear left what it writes
	}{
		{"a dump", func() error { return s.DumpABIs(c) }, func() bool { return len(sh.dumped) == 1 }},
		{"a last-level compaction", func() error {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return sh.lastLevelCompaction(c)
		}, func() bool { return sh.last != nil && len(sh.dumped) == 0 }},
	} {
		regrow()
		slot := s.em.register()
		slot.pin(s.em) // the pinned view's tables stay allocated
		v := sh.view.Load()
		frozen := v.abi()
		var held []uint64
		frozen.Iterate(func(sl hashtable.Slot) bool {
			held = append(held, sl.Hash)
			return true
		})
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		if !step.done() {
			t.Fatalf("%s left %d dumps and last level %v", step.name, len(sh.dumped), sh.last != nil)
		}
		if got := abi(); got.Len() != 0 || got.Cap() != s.cfg.abiStartSlots() {
			t.Fatalf("after %s: ABI holds %d of %d slots, want an empty %d-slot ABI (it held %d of %d)",
				step.name, got.Len(), got.Cap(), s.cfg.abiStartSlots(), len(held), frozen.Cap())
		}
		for _, h := range held {
			if _, src, ok := sh.lookupView(c, v, h, 0); !ok || src != srcABI {
				t.Fatalf("after %s: hash %#x found %v in %v through a view pinned before it, want in its frozen ABI", step.name, h, ok, src)
			}
		}
		slot.unpin()
		s.em.unregister(slot)
		after = step.name
	}
	regrow()
}

// TestABIGrowKeepsOldViews: a reader holding a view published before its
// shard's ABI grew keeps finding every key that view held while the writer
// grows the ABI twice over. Run with -race.
func TestABIGrowKeepsOldViews(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	const before = 1000
	for i := 0; i < before; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.shards[0]
	var hashes []uint64
	for i := 0; i < before; i++ {
		if h := s.hashFn(key(i)); s.shardFor(h) == sh {
			hashes = append(hashes, h)
		}
	}
	slot := s.em.register()
	defer s.em.unregister(slot)
	slot.pin(s.em) // the old view's tables stay allocated while it is probed
	defer slot.unpin()
	v := sh.view.Load()
	oldCap := v.abi().Cap()

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := simclock.New(0)
			for {
				for _, h := range hashes {
					if _, _, ok := sh.lookupView(c, v, h, 0); !ok {
						errs <- fmt.Errorf("hash %#x vanished from a view published before the grow", h)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var werr error
	for i := before; werr == nil && sh.view.Load().abi().Cap() < 4*oldCap; i++ {
		if i > 20*before {
			werr = fmt.Errorf("the ABI never grew past %d slots", sh.view.Load().abi().Cap())
			break
		}
		werr = se.Put(key(i), val(i))
	}
	close(done)
	wg.Wait()
	close(errs)
	if werr != nil {
		t.Fatal(werr)
	}
	for err := range errs {
		t.Fatal(err)
	}
}

// TestABIGrowthMovesNoCompaction pins one deterministic single-session run —
// puts, deletes, a Write-Intensive phase, an ABI dump, a crash and recovery,
// updates past the design — to the compaction counts and per-purpose media
// bytes it produced while every ABI was allocated at its cap. Growing the ABI
// may move virtual time, never a compaction or a media byte. (The log term is
// that of 16 B-header log entries: 40 B a put here. upper_compaction was
// re-pinned, 528384 -> 476416, when a store with an ABI began writing its
// upper tables at the lines their entries need; flush, upper_compaction,
// last_compaction and abi_dump were re-pinned when fitted tables went from
// fill 0.85 to two-choice lines at 0.95.)
func TestABIGrowthMovesNoCompaction(t *testing.T) {
	s := openTest(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	put := func(i int, v []byte) {
		t.Helper()
		if err := se.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		put(i, val(i))
		if i%7 == 6 {
			if err := se.Delete(key(i - 3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.SetWriteIntensive(true)
	for i := 0; i < 6000; i++ {
		put(i*3%20000, val2(i))
	}
	if err := s.DumpABIs(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		put(i*7%20000, val(i))
	}
	s.SetWriteIntensive(false)
	flush()
	s.Crash()
	if err := s.Recover(c); err != nil {
		t.Fatal(err)
	}
	se = s.NewSession(c)
	for i := 0; i < 10000; i++ {
		put(i*11%25000, val2(i))
	}
	flush()

	st := s.Stats()
	got := [5]int64{st.Flushes, st.Spills, st.UpperCompactions, st.LastCompactions, st.Dumps}
	if want := [5]int64{689, 188, 129, 43, 8}; got != want {
		t.Errorf("flushes, spills, upper, last compactions, dumps = %v, want %v", got, want)
	}
	want := map[string]int64{
		"log": 1810688, "flush": 657408, "upper_compaction": 431360, "last_compaction": 1345024,
		"abi_dump": 97280, "manifest": 240896, "gc_relocation": 0,
	}
	if by := s.MediaBytesByPurpose(); !reflect.DeepEqual(by, want) {
		t.Errorf("media bytes by purpose = %v, want %v", by, want)
	}
}

// TestDRAMBytesByPurposeSumExactly: the DRAM purposes add up to DRAMFootprint
// to the byte, each matches what the structures it names hold, and the
// registry exports the same numbers. Two stores cover every purpose: the ABI
// and the accelerators are exclusive.
func TestDRAMBytesByPurposeSumExactly(t *testing.T) {
	withGPM := openTest(t, func(c *Config) {
		c.GetProtect.Enabled = true
		c.GetProtect.EnterThresholdNs = 1 << 40 // monitor on, never engaged
	})
	withFilters := openTest(t, func(c *Config) { c.DisableABI = true; c.BloomFilters = true })
	seen := make(map[string]int64)
	for _, s := range []*Store{withGPM, withFilters} {
		se := s.NewSession(simclock.New(0))
		for i := 0; i < 3000; i++ {
			if err := se.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		// One frozen MemTable whose job has not run: what a pool's queue holds.
		sh := s.shards[0]
		sh.mu.Lock()
		sh.freezeMem()
		sh.mu.Unlock()

		by := s.DRAMBytesByPurpose()
		if len(by) != int(numDRAMPurposes) {
			t.Fatalf("%d purposes reported, want %d: %v", len(by), numDRAMPurposes, by)
		}
		var sum int64
		for p, b := range by {
			sum += b
			seen[p] += b
		}
		if fp := s.DRAMFootprint(); sum != fp {
			t.Fatalf("purposes sum to %d, DRAMFootprint is %d: %v", sum, fp, by)
		}
		memBytes := int64(s.cfg.MemTableSlots) * hashtable.SlotSize
		if want := int64(s.cfg.Shards) * memBytes; by["memtable"] != want {
			t.Errorf("memtable = %d, want %d", by["memtable"], want)
		}
		if by["frozen"] != memBytes {
			t.Errorf("frozen = %d, want one MemTable's %d", by["frozen"], memBytes)
		}
		snap := s.Registry().Snapshot()
		if want := snap.Gauges["core_abi_slots"] * hashtable.SlotSize; by["abi"] != want {
			t.Errorf("abi = %d, core_abi_slots says %d", by["abi"], want)
		}
		for p, b := range by {
			if got := snap.Gauges["core_dram_bytes_"+p]; got != b {
				t.Errorf("registry core_dram_bytes_%s = %d, store says %d", p, got, b)
			}
		}
	}
	if want := int64(withGPM.cfg.GetProtect.WindowSize) * 8; seen["gpm_window"] != want {
		t.Errorf("gpm_window = %d, want %d", seen["gpm_window"], want)
	}
	for p, b := range seen {
		if b <= 0 {
			t.Errorf("purpose %q held no bytes in either store", p)
		}
	}
}

// TestABIPurposeMatchesHeap referees the abi DRAM purpose against the Go
// heap. A store of chameleondb.DefaultOptions' geometry (64-slot MemTables,
// four levels, a derived 4096-slot ABI cap) at 16 shards takes updates until
// last-level compactions have cleared its ABIs several times over. Every
// 1 000 puts it runs runtime.GC() twice (the second empties the staging
// pool's victim cache) and samples HeapAlloc beside the purpose. Between the
// sample where the ABIs held the most and the one where they held the least,
// HeapAlloc must move by what the purpose moves: no more than it plus an
// eighth (Go rounds a small object up to its size class, at most 12.5 %) and
// 32 KiB (the rest of the heap, which the run holds steady), and no less than
// it minus 32 KiB. A footprint that under-reports a table by more than that
// eighth fails. The run also reports the summed capacity against what it
// would be if a cleared ABI kept its size.
func TestABIPurposeMatchesHeap(t *testing.T) {
	const keys, puts = 200_000, 240_000
	cfg := ScaledConfig(16, puts/2, 8)
	cfg.MemTableSlots, cfg.ABISlots = 64, 0
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	se := s.NewSession(simclock.New(0))
	type sample struct{ heap, abi int64 }
	var samples []sample
	var ms runtime.MemStats
	highWater := make([]int, len(s.shards))
	var slotSum, keptSum int64
	for u := 0; u < puts; u++ {
		i := int(uint32(u) * 2654435761 % keys)
		if err := se.Put(key(i), val(u)); err != nil {
			t.Fatal(err)
		}
		if u%1000 != 999 {
			continue
		}
		for id, c := range abiCaps(s) {
			highWater[id] = max(highWater[id], c)
			slotSum += int64(c)
			keptSum += int64(highWater[id])
		}
		if u < puts/4 {
			continue // until every ABI has been cleared once
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		samples = append(samples, sample{int64(ms.HeapAlloc), s.DRAMBytesByPurpose()["abi"]})
	}
	if st := s.Stats(); st.LastCompactions < 3*int64(cfg.Shards) {
		t.Fatalf("%d last-level compactions over %d shards: the ABIs were not cleared repeatedly", st.LastCompactions, cfg.Shards)
	}
	hi, lo := samples[0], samples[0]
	for _, x := range samples {
		if x.abi > hi.abi {
			hi = x
		}
		if x.abi < lo.abi {
			lo = x
		}
	}
	const slack = 32 << 10
	dAbi, dHeap := hi.abi-lo.abi, hi.heap-lo.heap
	t.Logf("abi purpose %d -> %d B, HeapAlloc %d -> %d B: purpose fell %d B, heap %d B; summed ABI slots %.0f%% of a never-shrinking ABI's",
		hi.abi, lo.abi, hi.heap, lo.heap, dAbi, dHeap, 100*float64(slotSum)/float64(keptSum))
	if capBytes := int64(cfg.Shards) * int64(s.cfg.ABISlots) * hashtable.SlotSize; 4*dAbi < capBytes {
		t.Fatalf("the abi purpose moved %d B, under a quarter of the %d B the ABIs hold at their cap", dAbi, capBytes)
	}
	if dHeap > dAbi+dAbi/8+slack || dHeap < dAbi-slack {
		t.Fatalf("the abi purpose fell %d B, the heap %d B: want the heap within [%d, %d]", dAbi, dHeap, dAbi-slack, dAbi+dAbi/8+slack)
	}
}

// TestOnlyFittedABIsAreTwoChoice: the two-choice Mem layout is the fitted
// ABI's alone. Through a load that takes every ABI to its cap and clears it
// again, every MemTable and frozen MemTable, and every ABI at its cap, is a
// power of two laid out for linear probing, while some ABI below its cap is
// two-choice; so are compactions' staging tables, and PinK's pins of a
// store without an ABI.
func TestOnlyFittedABIsAreTwoChoice(t *testing.T) {
	s := openTest(t, func(c *Config) { c.ABISlots = 256 })
	se := s.NewSession(simclock.New(0))
	atCap, fitted := 0, 0
	for i := 0; i < 8000; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		for id, sh := range s.shards {
			for _, tr := range sh.view.Load().tiers {
				switch {
				case tr.mem == nil:
				case tr.src != srcABI && tr.mem.TwoChoice():
					t.Fatalf("put %d: shard %d: a %d-slot %v table is two-choice", i, id, tr.mem.Cap(), tr.src)
				case tr.src == srcABI && tr.mem.Cap() == s.cfg.ABISlots:
					if tr.mem.TwoChoice() {
						t.Fatalf("put %d: shard %d: the ABI at its %d-slot cap is two-choice", i, id, tr.mem.Cap())
					}
					atCap++
				case tr.src == srcABI && tr.mem.TwoChoice():
					fitted++
				}
			}
		}
	}
	if atCap == 0 || fitted == 0 {
		t.Fatalf("%d ABI samples at the cap, %d fitted: the load reached neither", atCap, fitted)
	}
	for _, n := range []int{10, 100, 1000, 5000} {
		m := getStaging(needCap(n, 0.85, 16))
		if m.TwoChoice() {
			t.Fatalf("a %d-slot staging table is two-choice", m.Cap())
		}
		putStaging(m)
	}

	s = openTest(t, func(c *Config) { c.DisableABI, c.PinUppers = true, true })
	se = s.NewSession(simclock.New(0))
	for i := 0; i < 3000; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	pins := 0
	for id, sh := range s.shards {
		for _, lvl := range sh.levels {
			for _, p := range lvl {
				if p.pinned == nil || p.pinned.TwoChoice() {
					t.Fatalf("shard %d: an upper table's pin is missing or two-choice", id)
				}
				pins++
			}
		}
	}
	if pins == 0 {
		t.Fatal("no upper table was pinned")
	}
}
