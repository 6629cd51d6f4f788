package core

import (
	"fmt"
	"testing"

	"chameleondb/internal/simclock"
)

func openTest(t *testing.T, mutate ...func(*Config)) *Store {
	t.Helper()
	cfg := TestConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func key(i int) []byte  { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte  { return []byte(fmt.Sprintf("val-%08d", i)) }
func val2(i int) []byte { return []byte(fmt.Sprintf("VAL2-%07d", i)) }

func TestPutGetBasic(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	if err := se.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := se.Get(key(1))
	if err != nil || !ok || string(got) != string(val(1)) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	if _, ok, _ := se.Get(key(2)); ok {
		t.Fatal("found absent key")
	}
}

func TestUpdateOverwrites(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	se.Put(key(1), val(1))
	se.Put(key(1), val2(1))
	got, ok, _ := se.Get(key(1))
	if !ok || string(got) != string(val2(1)) {
		t.Fatalf("after update Get = %q, %v", got, ok)
	}
}

func TestDelete(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	se.Put(key(1), val(1))
	if err := se.Delete(key(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := se.Get(key(1)); ok {
		t.Fatal("deleted key still readable")
	}
	// Delete of an absent key is fine (blind tombstone).
	if err := se.Delete(key(9999)); err != nil {
		t.Fatal(err)
	}
	// Re-insert after delete.
	se.Put(key(1), val2(1))
	if got, ok, _ := se.Get(key(1)); !ok || string(got) != string(val2(1)) {
		t.Fatal("reinsert after delete failed")
	}
}

func TestFlushAndCompactionsTriggered(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	const n = 20000
	for i := 0; i < n; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("no MemTable flushes after 20k puts into tiny shards")
	}
	if st.UpperCompactions == 0 && st.LastCompactions == 0 {
		t.Fatal("no compactions triggered")
	}
	if st.LastCompactions == 0 {
		t.Fatal("expected last-level compactions with 3-level tiny shards")
	}
	// Everything must still be readable, wherever it landed.
	for i := 0; i < n; i += 97 {
		got, ok, err := se.Get(key(i))
		if err != nil || !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d unreadable after compactions: %q %v %v", i, got, ok, err)
		}
	}
	// With the ABI enabled, gets must never touch upper levels in Pmem.
	if st2 := s.Stats(); st2.GetUpper != 0 {
		t.Fatalf("ABI bypass violated: %d upper-level probes", st2.GetUpper)
	}
}

func TestGetSourcesDistribution(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	const n = 20000
	for i := 0; i < n; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < n; i++ {
		if _, ok, _ := se.Get(key(i)); !ok {
			t.Fatalf("lost key %d", i)
		}
	}
	st := s.Stats()
	if st.GetLast == 0 {
		t.Fatal("no last-level hits; compactions did not move data down")
	}
	if st.GetABI == 0 && st.GetMemTable == 0 {
		t.Fatal("no DRAM hits at all")
	}
	if st.GetMiss != 0 {
		t.Fatalf("%d unexpected misses", st.GetMiss)
	}
}

func TestLevelByLevelMode(t *testing.T) {
	s := openTest(t, func(c *Config) { c.CompactionMode = LevelByLevel })
	se := s.NewSession(simclock.New(0))
	const n = 15000
	for i := 0; i < n; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 53 {
		got, ok, _ := se.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost in level-by-level mode", i)
		}
	}
	if s.Stats().UpperCompactions == 0 {
		t.Fatal("no upper compactions in level-by-level mode")
	}
}

func TestDisableABIStillCorrect(t *testing.T) {
	s := openTest(t, func(c *Config) { c.DisableABI = true })
	se := s.NewSession(simclock.New(0))
	const n = 12000
	for i := 0; i < n; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 31 {
		got, ok, _ := se.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost without ABI", i)
		}
	}
	st := s.Stats()
	if st.GetABI != 0 {
		t.Fatal("ABI hits reported with ABI disabled")
	}
	if st.GetUpper == 0 {
		t.Fatal("expected upper-level Pmem probes without ABI")
	}
}

func TestABIReducesGetLatency(t *testing.T) {
	// The paper's core claim (Figure 6): with the ABI, gets probe at most
	// three structures, so mean get time must beat the multi-level walk.
	run := func(disable bool) int64 {
		cfg := TestConfig()
		cfg.DisableABI = disable
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		se := s.NewSession(simclock.New(0))
		const n = 12000
		for i := 0; i < n; i++ {
			se.Put(key(i), val(i))
		}
		start := se.Clock().Now()
		for i := 0; i < n; i += 3 {
			se.Get(key(i))
		}
		return se.Clock().Now() - start
	}
	with, without := run(false), run(true)
	if with >= without {
		t.Fatalf("ABI did not reduce get time: with=%d without=%d", with, without)
	}
}

func TestWriteIntensiveMode(t *testing.T) {
	s := openTest(t, func(c *Config) { c.WriteIntensive = true })
	se := s.NewSession(simclock.New(0))
	const n = 15000
	for i := 0; i < n; i++ {
		se.Put(key(i), val(i))
	}
	st := s.Stats()
	if st.Spills == 0 {
		t.Fatal("write-intensive mode never spilled to ABI")
	}
	if st.Flushes != 0 {
		t.Fatalf("write-intensive mode flushed %d L0 tables", st.Flushes)
	}
	if st.LastCompactions == 0 {
		t.Fatal("ABI-full should have forced last-level compactions")
	}
	for i := 0; i < n; i += 41 {
		got, ok, _ := se.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost in WIM", i)
		}
	}
}

func TestWriteIntensiveFasterPuts(t *testing.T) {
	// Figure 15: WIM improves put throughput by skipping upper-level
	// maintenance.
	run := func(wim bool) int64 {
		cfg := TestConfig()
		cfg.WriteIntensive = wim
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		se := s.NewSession(simclock.New(0))
		for i := 0; i < 20000; i++ {
			se.Put(key(i), val(i))
		}
		return se.Clock().Now()
	}
	normal, wim := run(false), run(true)
	if wim >= normal {
		t.Fatalf("WIM not faster: normal=%d wim=%d", normal, wim)
	}
}

func TestDirectFasterThanLevelByLevel(t *testing.T) {
	// Figure 15: Direct Compaction reduces compaction overhead.
	run := func(mode CompactionMode) int64 {
		cfg := TestConfig()
		cfg.CompactionMode = mode
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		se := s.NewSession(simclock.New(0))
		for i := 0; i < 30000; i++ {
			se.Put(key(i), val(i))
		}
		return se.Clock().Now()
	}
	lbl, direct := run(LevelByLevel), run(DirectCompaction)
	if direct >= lbl {
		t.Fatalf("direct compaction not faster: lbl=%d direct=%d", lbl, direct)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Shards = 3 },
		func(c *Config) { c.Shards = 0 },
		func(c *Config) { c.Shards = 2 * maxShards },
		func(c *Config) { c.MemTableSlots = 100 },
		func(c *Config) { c.Levels = 1 },
		func(c *Config) { c.Ratio = 1 },
		func(c *Config) { c.LoadFactorMin = 0.9; c.LoadFactorMax = 0.5 },
		func(c *Config) { c.LogBytes = c.ArenaBytes * 2 },
		func(c *Config) { c.GetProtect.Enabled = true; c.GetProtect.EnterThresholdNs = 0 },
	}
	for i, m := range bad {
		cfg := TestConfig()
		m(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	// Table 1 relationships.
	if cfg.upperCapacitySlots() != 512*(4+12+48) {
		t.Fatalf("upper capacity = %d slots", cfg.upperCapacitySlots())
	}
	if cfg.lastLevelSlots() != 512*64 {
		t.Fatalf("last level = %d slots", cfg.lastLevelSlots())
	}
	// ABI (512 KB = 32768 slots) holds the full upper levels at max load.
	maxUpper := float64(cfg.upperCapacitySlots()) * cfg.LoadFactorMax
	if maxUpper > float64(cfg.ABISlots)*abiFullFraction {
		t.Fatalf("ABI (%d slots) cannot cover upper levels (%.0f entries)", cfg.ABISlots, maxUpper)
	}
}

func TestRandomizedLoadFactorsDiffer(t *testing.T) {
	cfg := TestConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for i := 0; i < cfg.Shards; i++ {
		lf := cfg.loadFactorFor(i)
		if lf < cfg.LoadFactorMin || lf > cfg.LoadFactorMax {
			t.Fatalf("shard %d load factor %v out of range", i, lf)
		}
		seen[lf] = true
	}
	if len(seen) < 2 {
		t.Fatal("randomized load factors are not randomized")
	}
	cfg.UniformLoadFactor = true
	if cfg.loadFactorFor(0) != cfg.loadFactorFor(5) {
		t.Fatal("uniform mode should give identical thresholds")
	}
}

func TestDRAMFootprintAccounting(t *testing.T) {
	s := openTest(t)
	fp := s.DRAMFootprint()
	cfg := s.Config()
	wantMin := int64(cfg.Shards) * int64(cfg.MemTableSlots) * 16
	if fp < wantMin {
		t.Fatalf("footprint %d below MemTable floor %d", fp, wantMin)
	}
	s2 := openTest(t, func(c *Config) { c.DisableABI = true })
	if s2.DRAMFootprint() >= fp {
		t.Fatal("disabling the ABI should shrink the footprint")
	}
}

func TestOperationsChargeVirtualTime(t *testing.T) {
	s := openTest(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	se.Put(key(1), val(1))
	afterPut := c.Now()
	if afterPut == 0 {
		t.Fatal("put charged no time")
	}
	se.Get(key(1))
	if c.Now() == afterPut {
		t.Fatal("get charged no time")
	}
}

func TestSessionFlushDurability(t *testing.T) {
	s := openTest(t)
	c := simclock.New(0)
	se := s.NewSession(c)
	se.Put(key(1), val(1))
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	got, ok, err := se2.Get(key(1))
	if err != nil || !ok || string(got) != string(val(1)) {
		t.Fatalf("flushed put lost across crash: %q %v %v", got, ok, err)
	}
}

func TestCrashWithoutFlushLosesTail(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	se.Put(key(1), val(1)) // buffered in the 4 KB batch, not yet durable
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	if _, ok, _ := se2.Get(key(1)); ok {
		t.Fatal("unflushed put survived crash (durability model broken)")
	}
}

func TestCrashedStoreRejectsOps(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	se.Put(key(1), val(1))
	s.Crash()
	if err := se.Put(key(2), val(2)); err == nil {
		t.Fatal("put accepted on crashed store")
	}
	if _, _, err := se.Get(key(1)); err == nil {
		t.Fatal("get accepted on crashed store")
	}
	if err := se.Flush(); err == nil {
		t.Fatal("flush accepted on crashed store")
	}
}
