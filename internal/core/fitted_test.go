package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/storetest"
)

// grownConfig is sweepConfig shrunk until a few hundred keys are several
// times what the last level was designed for: 2 shards of 8-slot MemTables
// over 3 levels at ratio 2 give a 32-slot last level per shard, 54 keys at
// fitFill in all.
func grownConfig() Config {
	cfg := sweepConfig()
	cfg.Shards = 2
	cfg.MemTableSlots = 8
	return cfg
}

const grownDesignKeys = 54 // 2 shards x 32 slots x 0.85

// fittedTables counts the store's persisted tables whose capacity is not a
// power of two.
func fittedTables(s *Store) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		tables := append([]*ptable{sh.last}, sh.dumped...)
		for _, p := range tables {
			if p != nil && p.t.Cap()&(p.t.Cap()-1) != 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

func TestFittedCap(t *testing.T) {
	for _, tc := range []struct{ n, designed, want int }{
		{0, 4096, 4096},
		{3481, 4096, 4096},   // 0.85 x 4096 = 3481.6: still the designed table
		{3482, 4096, 4112},   // ceil(3482/0.85) = 4097 -> 257 lines
		{15625, 4096, 18384}, // the repo benchmark's shard: 1 M keys over 64 shards
		{27852, 32768, 32768},
		{29491, 32768, 34704}, // an ABI dumped at abiFullFraction
		{7, 8, 16},            // smallest outgrown table: one line
	} {
		if got := fittedCap(tc.n, tc.designed); got != tc.want {
			t.Errorf("fittedCap(%d, %d) = %d, want %d", tc.n, tc.designed, got, tc.want)
		}
	}
}

// TestMediaBytesByPurposeSumExactly: every persist a store issues is booked
// under exactly one purpose, so on a synchronous store the purposes add up to
// the device's media counter — to the byte — after a mix that exercises all
// of them: puts, deletes, an ABI dump, and a log GC that relocates.
func TestMediaBytesByPurposeSumExactly(t *testing.T) {
	s := openGC(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	payload := make([]byte, 200)
	const n = 12000
	for i := 0; i < n; i++ {
		copy(payload, key(i))
		if err := se.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := se.Delete(key(i - 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.DumpABIs(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactLog(c, 2*s.Log().SegmentSize()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := se.Put(key(i), val2(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}

	by := s.MediaBytesByPurpose()
	var sum int64
	for purpose, b := range by {
		if b <= 0 {
			t.Errorf("purpose %q booked %d bytes; the mix exercises it", purpose, b)
		}
		sum += b
	}
	if len(by) != int(numMediaPurposes) {
		t.Fatalf("%d purposes reported, want %d: %v", len(by), numMediaPurposes, by)
	}
	if media := s.DeviceStats().MediaBytesWritten; sum != media {
		t.Fatalf("purposes sum to %d, device wrote %d (off by %d): %v", sum, media, media-sum, by)
	}
	snap := s.Registry().Snapshot()
	for purpose, b := range by {
		if got := snap.Counters["core_media_bytes_"+purpose]; got != b {
			t.Errorf("registry core_media_bytes_%s = %d, store says %d", purpose, got, b)
		}
	}
}

// TestGrownLastLevelWriteAmp is the cost gate for a keyset that has outgrown
// the configured geometry — the facade's default 64-slot MemTables over four
// levels at ratio 4, loaded with four times the keys its 4096-slot last level
// was designed for, then updated uniformly. Each last-level compaction may
// persist the lines its live entries need at fitFill and one more, not the
// next power of two; and the index's write amplification (media bytes outside
// the log per 16 B slot put) stays under a bound the doubling table breaks:
// measured 9.1 fitted, 13.2 doubled.
func TestGrownLastLevelWriteAmp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 64
	cfg.ABISlots = 0
	cfg.ArenaBytes = 64 << 20
	cfg.LogBytes = 32 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	designed := cfg.Shards * cfg.lastLevelSlots()
	keys := 4 * int(fitFill*float64(designed))
	se := s.NewSession(simclock.New(0))
	lastBytes, lastCompactions := int64(0), int64(0)
	put := func(i, ver int) {
		t.Helper()
		k := key(i)
		if err := se.Put(k, []byte(fmt.Sprintf("v%07d", ver))); err != nil {
			t.Fatal(err)
		}
		n := s.stats.LastCompactions.Load()
		if n == lastCompactions {
			return
		}
		if n != lastCompactions+1 {
			t.Fatalf("one put ran %d last-level compactions", n-lastCompactions)
		}
		wrote := s.mediaBytes(mediaLast) - lastBytes
		lastBytes, lastCompactions = lastBytes+wrote, n
		live := s.shardFor(s.hashFn(k)).last.t.Len()
		need := int64(math.Ceil(float64(live)/fitFill)) * 16
		if need < int64(cfg.lastLevelSlots())*16 {
			need = int64(cfg.lastLevelSlots()) * 16
		}
		if wrote > need+256 {
			t.Fatalf("last-level compaction %d persisted %d B for %d live entries; they need %d B at fill %.2f",
				n, wrote, live, need, fitFill)
		}
	}
	for i := 0; i < keys; i++ {
		put(i, 0)
	}
	loadedMedia, loadedLog := s.DeviceStats().MediaBytesWritten, s.Log().MediaBytes()
	updates := 2 * keys
	for u := 0; u < updates; u++ {
		put(int(uint32(u)*2654435761%uint32(keys)), u+1)
	}
	if lastCompactions < 50 {
		t.Fatalf("only %d last-level compactions ran; the gate needs a grown last level at work", lastCompactions)
	}
	index := (s.DeviceStats().MediaBytesWritten - loadedMedia) - (s.Log().MediaBytes() - loadedLog)
	wa := float64(index) / float64(updates) / 16
	t.Logf("index write amplification over %d uniform updates of %d keys: %.2f", updates, keys, wa)
	if fittedTables(s) != cfg.Shards {
		t.Fatalf("%d of %d last levels are fitted", fittedTables(s), cfg.Shards)
	}
	if wa > 11 {
		t.Fatalf("index write amplification %.2f on a 4x-grown last level, want <= 11", wa)
	}
}

// TestGrownKeysetRecyclesArenaBlocks drives 200 last-level compactions while
// one shard's keyset grows from what its last level was designed for to
// eight times that. Fitted tables are carved from — and give back — the same
// power-of-two blocks the doubling tables used, so the arena's high-water
// mark is the parent's: 17408 B, measured with this test on the commit before
// fitted capacities.
func TestGrownKeysetRecyclesArenaBlocks(t *testing.T) {
	cfg := grownConfig()
	cfg.Shards = 1
	cfg.ArenaBytes = 16 << 20
	cfg.LogBytes = 8 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	const design = grownDesignKeys / 2
	rng := rand.New(rand.NewSource(1))
	for i := 0; s.Stats().LastCompactions < 200; i++ {
		if i > 100000 {
			t.Fatalf("200 last-level compactions never came: %+v", s.Stats())
		}
		// The keyset widens with the compaction count: 1x design at the
		// start, 8x by the 200th.
		span := design + int(s.Stats().LastCompactions)*7*design/200
		if err := se.Put(key(rng.Intn(span)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.arena.InUse() - s.Log().LiveBytes()
	t.Logf("arena high-water mark outside the log: %d B", got)
	if got > 17408 {
		t.Fatalf("arena high-water mark outside the log is %d B, the parent's is 17408", got)
	}
}

// TestAllocsPersistManifest: the manifest is re-encoded after every flush and
// compaction; header and payload are built in the shard's scratch buffer.
func TestAllocsPersistManifest(t *testing.T) {
	s := openTest(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	for i := 0; i < 2000; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.persistManifest(c)
	if n := testing.AllocsPerRun(100, func() { sh.persistManifest(c) }); n != 0 {
		t.Fatalf("persistManifest allocates %v per call, want 0", n)
	}
}

// grownSweepWorkload is the sweep script over a keyset four times the
// designed last level: kill points land inside fitted last-level builds, and
// recovery reattaches tables whose capacity is not a power of two.
func grownSweepWorkload() storetest.SweepConfig {
	wl := sweepWorkload()
	wl.Keys = 4 * grownDesignKeys
	wl.Ops = 1000 // 8-slot MemTables persist four times as often as sweepConfig's
	return wl
}

func TestCrashSweepGrownLastLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	var last *Store
	open := func() (kvstore.Store, error) {
		s, err := Open(grownConfig())
		last = s
		return s, err
	}
	storetest.RunCrashSweep(t, "ChameleonDB-Grown", open, grownSweepWorkload())
	// The final point cut the script's last persist: what that store serves
	// was reattached from manifests.
	if last == nil || fittedTables(last) == 0 {
		t.Fatal("the sweep's last recovery reattached no fitted table: the keyset no longer outgrows the design")
	}
}

func TestCrashSweepFileBackendGrownLastLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	var last *Store
	open := func() (kvstore.Store, error) {
		cfg, dir := grownConfig(), t.TempDir()
		s, _, err := OpenFile(cfg, dir)
		if err != nil {
			return nil, err
		}
		return storetest.NewReopening(s, func() (kvstore.Store, error) {
			s, existing, err := OpenFile(cfg, dir)
			if err == nil && !existing {
				s.Close()
				err = fmt.Errorf("reopen of %s found no durable state", dir)
			}
			last = s
			return s, err
		}), nil
	}
	wl := grownSweepWorkload()
	wl.Ops = 400 // every point costs real fsyncs
	wl.Stride = 2
	storetest.RunCrashSweep(t, "ChameleonDB-File-Grown", open, wl)
	if last == nil || fittedTables(last) == 0 {
		t.Fatal("the sweep's last cold reopen reattached no fitted table")
	}
}

// TestOpenFileReattachesFittedTables is the cold-reopen path over manifests
// that reference fitted tables: a directory written with a grown keyset is
// abandoned, reopened and recovered; the fitted last levels are reattached
// with their blocks reserved, so the tables built after the restart do not
// land on them; and a second generation survives another restart.
func TestOpenFileReattachesFittedTables(t *testing.T) {
	cfg := grownConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4 * grownDesignKeys
	want := make(map[string][]byte)
	write := func(s *Store, gen int) {
		t.Helper()
		se := s.NewSession(simclock.New(0))
		for i := 0; i < keys; i++ {
			v := bytes.Repeat([]byte{byte(gen), byte(i)}, i%20+1)
			if err := se.Put(key(i), v); err != nil {
				t.Fatal(err)
			}
			want[string(key(i))] = v
		}
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func() *Store {
		t.Helper()
		s, existing, err := OpenFile(cfg, dir)
		if err != nil || !existing {
			t.Fatalf("reopen: existing=%v err=%v", existing, err)
		}
		if err := s.Recover(simclock.New(0)); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if fittedTables(s) == 0 {
			t.Fatal("no fitted table reattached: the keyset no longer outgrows the design")
		}
		for _, sh := range s.shards {
			if end := sh.last.t.Offset() + sh.last.t.BlockBytes(); s.arena.InUse() < end {
				t.Fatalf("allocator mark %d is inside a reattached table's block (ends %d)", s.arena.InUse(), end)
			}
		}
		se := s.NewSession(simclock.New(0))
		for k, v := range want {
			got, ok, err := se.Get([]byte(k))
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %s after restart: got %q ok=%v err=%v, want %q", k, got, ok, err, v)
			}
		}
		if err := s.VerifyIntegrity(simclock.New(0)); err != nil {
			t.Fatalf("integrity after restart: %v", err)
		}
		return s
	}
	write(s, 1) // no Close: the process dies
	s = reopen()
	write(s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopen().Close()
}
