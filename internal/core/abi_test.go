package core

import (
	"fmt"
	"reflect"
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
		if err := sh.abiInsert(c, slot(i), false); err != nil {
			t.Fatalf("insert %d into a %d-slot ABI: %v", i, sh.abi.Cap(), err)
		}
	}
	if sh.abi.Cap() != 128 || sh.abi.Len() != 128 {
		t.Fatalf("ABI holds %d of %d slots, want 128 of 128", sh.abi.Len(), sh.abi.Cap())
	}
	if err := sh.abiInsert(c, slot(128), false); err == nil {
		t.Fatal("an ABI full at its cap accepted a new entry")
	}
	if err := sh.abiInsert(c, slot(128), true); err == nil {
		t.Fatal("an ABI full at its cap accepted a new entry (if absent)")
	}
	// Versions of hashes already present still land.
	if err := sh.abiInsert(c, slot(5), false); err != nil {
		t.Fatalf("update in a full ABI: %v", err)
	}
	if err := sh.abiInsert(c, slot(6), true); err != nil {
		t.Fatalf("present hash in a full ABI: %v", err)
	}
	for i := 0; i < 128; i++ {
		if _, _, ok := sh.abi.Get(slot(i).Hash); !ok {
			t.Fatalf("entry %d dropped", i)
		}
	}
}

// TestABIGrowsToOccupancy: at the serving geometry (64 shards, 512-slot
// MemTables, 32768-slot ABI cap) 200 k keys and as many updates leave no ABI
// above 8192 slots; a keyset that outgrows the design takes every ABI to
// exactly its cap and never past it; a crash starts them small again.
func TestABIGrowsToOccupancy(t *testing.T) {
	cfg := ScaledConfig(64, 200_000, 8)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	const keys = 200_000
	for u := 0; u < 2*keys; u++ {
		i := u
		if u >= keys {
			i = int(uint32(u) * 2654435761 % keys)
		}
		if err := se.Put(key(i), val(u)); err != nil {
			t.Fatal(err)
		}
	}
	largest := 0
	for _, c := range abiCaps(s) {
		largest = max(largest, c)
	}
	t.Logf("largest ABI at 200 k keys: %d slots (cap %d)", largest, s.cfg.ABISlots)
	if largest > 8192 {
		t.Fatalf("an ABI grew to %d slots holding ~3 k entries", largest)
	}

	s = openTest(t) // 8 shards, ABI cap 1024, ~7 k keys designed
	se = s.NewSession(simclock.New(0))
	for i := 0; i < 20_000; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		for sh, c := range abiCaps(s) {
			if c > s.cfg.ABISlots {
				t.Fatalf("put %d: shard %d's ABI has %d slots, cap %d", i, sh, c, s.cfg.ABISlots)
			}
		}
	}
	for sh, c := range abiCaps(s) {
		if c != s.cfg.ABISlots {
			t.Fatalf("shard %d's ABI stopped at %d slots on an outgrown keyset, cap %d", sh, c, s.cfg.ABISlots)
		}
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
// that of 16 B-header log entries: 40 B a put here.)
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
		"log": 1810688, "flush": 705536, "upper_compaction": 528384, "last_compaction": 1487104,
		"abi_dump": 99072, "manifest": 240896, "gc_relocation": 0,
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
