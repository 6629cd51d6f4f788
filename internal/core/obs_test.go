package core

import (
	"fmt"
	"sync"
	"testing"

	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// TestDeleteCountsAsDelete checks the accounting fix: tombstone appends land
// in the Deletes counter, not Puts.
func TestDeleteCountsAsDelete(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 5; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := se.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Puts != 5 {
		t.Errorf("Puts = %d, want 5", st.Puts)
	}
	if st.Deletes != 2 {
		t.Errorf("Deletes = %d, want 2", st.Deletes)
	}
	// The write path's latency histogram covers both (same code path).
	if n := s.PutLatency().Count(); n != 7 {
		t.Errorf("put latency count = %d, want 7", n)
	}
}

// TestHashMismatchCountsAsMiss checks the reclassification fix: a full 64-bit
// hash collision makes the get report a miss, so it must count as GetMiss (and
// HashMismatches), not as a hit at the structure that produced the colliding
// ref — otherwise the per-source counters would not sum consistently with what
// callers observed.
func TestHashMismatchCountsAsMiss(t *testing.T) {
	s := openTest(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	keyA := []byte("collision-victim")
	if err := se.Put(keyA, []byte("valueA")); err != nil {
		t.Fatal(err)
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}

	// Forge the collision: point keyB's hash at keyA's log entry, as a real
	// 64-bit collision would.
	keyB := []byte("collision-imposter")
	hA, hB := xhash.Sum64(keyA), xhash.Sum64(keyB)
	shA := s.shardFor(hA)
	shA.mu.Lock()
	slot, _, ok := shA.lookup(c, hA)
	shA.mu.Unlock()
	if !ok {
		t.Fatal("keyA not found in its shard")
	}
	shB := s.shardFor(hB)
	shB.mu.Lock()
	err := shB.insertMem(c, hB, slot.LSN(), false)
	shB.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	v, found, err := se.Get(keyB)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatalf("colliding get returned %q, want miss", v)
	}
	after := s.Stats()
	if after.HashMismatches != before.HashMismatches+1 {
		t.Errorf("HashMismatches = %d, want %d", after.HashMismatches, before.HashMismatches+1)
	}
	if after.GetMiss != before.GetMiss+1 {
		t.Errorf("GetMiss = %d, want %d (mismatch must count as miss)", after.GetMiss, before.GetMiss+1)
	}
	if after.GetMemTable != before.GetMemTable {
		t.Errorf("GetMemTable advanced on a miss: %d -> %d", before.GetMemTable, after.GetMemTable)
	}
}

// TestPerSourceHistogramsMatchCounters checks the Figure 6 invariant: each
// source's latency histogram holds exactly as many samples as its counter,
// and the sources sum to the number of gets issued.
func TestPerSourceHistogramsMatchCounters(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	const n = 4000
	for i := 0; i < n; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	gets := 0
	for i := 0; i < n; i += 3 { // hits across memtable/abi/upper/last
		if _, ok, err := se.Get(key(i)); err != nil || !ok {
			t.Fatalf("get key(%d) = %v, %v", i, ok, err)
		}
		gets++
	}
	for i := n; i < n+50; i++ { // misses
		if _, ok, _ := se.Get(key(i)); ok {
			t.Fatalf("found absent key(%d)", i)
		}
		gets++
	}

	st := s.Stats()
	bySource := s.GetLatencyBySource()
	counters := map[string]int64{
		"memtable": st.GetMemTable,
		"abi":      st.GetABI,
		"dumped":   st.GetDumped,
		"upper":    st.GetUpper,
		"last":     st.GetLast,
		"miss":     st.GetMiss,
	}
	var sum int64
	for src, want := range counters {
		got := bySource[src].Count()
		if got != want {
			t.Errorf("%s: histogram count %d != counter %d", src, got, want)
		}
		sum += want
	}
	if sum != int64(gets) {
		t.Errorf("source counters sum to %d, want %d gets issued", sum, gets)
	}
}

// TestSetWriteIntensiveToggleRace is the -race regression for the mode
// switch: SetWriteIntensive used to write s.cfg.WriteIntensive while
// memTableFull read it from concurrent sessions.
func TestSetWriteIntensiveToggleRace(t *testing.T) {
	s := openTest(t)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			se := s.NewSession(simclock.New(0))
			for i := 0; i < 2000; i++ {
				if err := se.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), val(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			s.SetWriteIntensive(i%2 == 0)
		}
	}()
	wg.Wait()
	<-done
	if got := s.Config().WriteIntensive; got {
		t.Errorf("final WriteIntensive = %v, want false (last toggle was off)", got)
	}
}

// TestGoldenTraceSequence scripts a tiny deterministic workload and checks
// the exact event-type sequence the engine emits: flush activity while
// loading, a crash, and the two recovery phases.
func TestGoldenTraceSequence(t *testing.T) {
	s := openTest(t, func(cfg *Config) {
		cfg.Shards = 1
		cfg.MemTableSlots = 16
		cfg.Levels = 3
		cfg.Ratio = 2
		cfg.TraceEvents = 256
	})
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 200; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}

	var types []obs.EventType
	for _, ev := range s.Trace().Events() {
		types = append(types, ev.Type)
	}
	want := goldenTraceTypes()
	if len(types) != len(want) {
		t.Fatalf("trace has %d events, want %d:\n%v", len(types), len(want), types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s\nfull: %v", i, types[i], want[i], types)
		}
	}

	// Virtual timestamps are monotone within the load (single worker) and
	// every shard id is valid.
	evs := s.Trace().Events()
	for i, ev := range evs {
		if ev.Shard < -1 || ev.Shard >= 1 {
			t.Errorf("event %d has shard %d outside [-1, 0]", i, ev.Shard)
		}
		if ev.Type == obs.EvCrash && ev.VNanos != 0 {
			t.Errorf("crash event carries virtual time %d, want 0", ev.VNanos)
		}
	}
}

// goldenTraceTypes is the recorded sequence for the scripted workload above:
// 200 puts into one shard with 16-slot MemTables produce a fixed cadence of
// flushes — two L0 tables trigger an upper compaction (ratio 2), and every
// second upper compaction cascades into the last level — then the crash and
// the two-phase recovery close the trace.
func goldenTraceTypes() []obs.EventType {
	return []obs.EventType{
		obs.EvFlush, obs.EvFlush, obs.EvUpperCompact,
		obs.EvFlush, obs.EvFlush, obs.EvLastCompact,
		obs.EvFlush, obs.EvFlush, obs.EvUpperCompact,
		obs.EvFlush, obs.EvFlush, obs.EvLastCompact,
		obs.EvFlush, obs.EvFlush, obs.EvUpperCompact,
		obs.EvFlush, obs.EvFlush, obs.EvLastCompact,
		obs.EvFlush, obs.EvFlush, obs.EvUpperCompact,
		obs.EvFlush,
		obs.EvCrash, obs.EvRecoverReady, obs.EvRecoverFull,
	}
}
