package core

import (
	"testing"
	"time"

	"chameleondb/internal/simclock"
)

func openGPM(t *testing.T, threshold int64) *Store {
	t.Helper()
	cfg := TestConfig()
	cfg.GetProtect = GPMConfig{
		Enabled:          true,
		EnterThresholdNs: threshold,
		ExitThresholdNs:  threshold,
		MaxDumps:         1,
		WindowSize:       256,
		SampleEvery:      1,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGPMEngagesOnSlowGets(t *testing.T) {
	// An absurdly low threshold forces GPM on as soon as gets are sampled.
	s := openGPM(t, 1)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 2000; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < 2000; i++ {
		se.Get(key(i))
	}
	if !s.GPMActive() {
		t.Fatal("GPM did not engage despite threshold of 1 ns")
	}
	if s.Stats().GPMEntries == 0 {
		t.Fatal("GPM entry not counted")
	}
	// Puts during GPM must spill, not flush.
	f0 := s.Stats().Flushes
	for i := 2000; i < 8000; i++ {
		se.Put(key(i), val(i))
	}
	st := s.Stats()
	if st.Flushes != f0 {
		t.Fatalf("flushes happened during GPM: %d -> %d", f0, st.Flushes)
	}
	if st.Spills == 0 {
		t.Fatal("no ABI spills during GPM")
	}
	// Everything remains readable.
	for i := 0; i < 8000; i += 37 {
		got, ok, _ := se.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost during GPM", i)
		}
	}
}

func TestGPMDumpsABIWithoutMerging(t *testing.T) {
	s := openGPM(t, 1)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 500; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < 500; i++ {
		se.Get(key(i))
	}
	if !s.GPMActive() {
		t.Fatal("GPM not active")
	}
	last0 := s.Stats().LastCompactions
	// Push enough data through GPM to fill the ABI at least once.
	for i := 500; i < 25000; i++ {
		se.Put(key(i), val(i))
	}
	st := s.Stats()
	if st.Dumps == 0 {
		t.Fatal("ABI never dumped during sustained GPM puts")
	}
	// With MaxDumps=1, once the dump budget is gone a forced last-level
	// compaction must eventually clear the ABI anyway.
	if st.LastCompactions == last0 {
		t.Fatal("dump budget exhausted but no forced last-level compaction")
	}
	for i := 0; i < 25000; i += 111 {
		got, ok, _ := se.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost across GPM dumps", i)
		}
	}
	if s.Stats().GetDumped == 0 {
		t.Fatal("no gets served from dumped tables")
	}
}

func TestGPMExitsAndMergesDumps(t *testing.T) {
	s := openGPM(t, 1)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 500; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < 500; i++ {
		se.Get(key(i))
	}
	for i := 500; i < 25000; i++ {
		se.Put(key(i), val(i))
	}
	if s.Stats().Dumps == 0 {
		t.Skip("workload did not produce a dump; geometry changed?")
	}
	// Raise the exit threshold so the next sampled gets cancel GPM.
	s.cfg.GetProtect.EnterThresholdNs = 1 << 60
	s.cfg.GetProtect.ExitThresholdNs = 1 << 60
	for i := 0; i < 2000; i++ {
		se.Get(key(i))
	}
	if s.GPMActive() {
		t.Fatal("GPM did not exit after latency dropped below threshold")
	}
	if s.Stats().GPMExits == 0 {
		t.Fatal("GPM exit not counted")
	}
	// Subsequent puts trigger the postponed merges; dumps drain.
	for i := 25000; i < 30000; i++ {
		se.Put(key(i), val(i))
	}
	dumpsLeft := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		dumpsLeft += len(sh.dumped)
		sh.mu.Unlock()
	}
	if dumpsLeft != 0 {
		t.Fatalf("%d dumped tables never merged back", dumpsLeft)
	}
	for i := 0; i < 30000; i += 173 {
		got, ok, _ := se.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost after GPM drain", i)
		}
	}
}

func TestGPMCrashRecovery(t *testing.T) {
	// Crash while dumps exist and spills are unpersisted: recovery must
	// restore every acknowledged-durable key.
	s := openGPM(t, 1)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 500; i++ {
		se.Put(key(i), val(i))
	}
	for i := 0; i < 500; i++ {
		se.Get(key(i))
	}
	for i := 500; i < 20000; i++ {
		se.Put(key(i), val(i))
	}
	se.Flush()
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < 20000; i += 97 {
		got, ok, _ := se2.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost across GPM crash", i)
		}
	}
}

// TestGPMMergeRunsOnThePool pins where the postponed merge runs on a store
// with a maintenance pool: the first put after a Get-Protect exit schedules
// it as a last-level job and returns without merging, and the pool merges the
// dump back before the session's Flush barrier returns. Both workers are
// wedged while the put runs, so a merge that happened anyway ran inline.
func TestGPMMergeRunsOnThePool(t *testing.T) {
	cfg := TestConfig()
	cfg.MaintenanceWorkers = 2
	cfg.GetProtect = GPMConfig{Enabled: true, EnterThresholdNs: 1 << 60, MaxDumps: 1, WindowSize: 256, SampleEvery: 1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const target = 2
	se := s.NewSession(simclock.New(0)).(*Session)
	defer se.Release()
	keys := shardKeys(s, target, 201)
	for _, k := range keys[:200] {
		if err := se.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	if err := s.DumpABIs(c); err != nil {
		t.Fatal(err)
	}
	if len(s.shards[target].dumped) == 0 {
		t.Fatal("no dump to merge back; geometry changed?")
	}
	// Engage Get-Protect Mode, then let sampled gets cancel it: every shard
	// is marked for the postponed merge.
	s.gpmActive.Store(true)
	for i := 0; s.stats.GPMExits.Load() == 0; i++ {
		if i == 10000 {
			t.Fatal("Get-Protect Mode never exited")
		}
		if _, _, err := se.Get(keys[i%200]); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge both workers on shards the put does not touch.
	for _, id := range []int{0, 1} {
		s.shards[id].mu.Lock()
		s.maint.enqueue(id, maintFlush)
	}
	for start := time.Now(); s.maint.busy.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("workers never picked up the wedge jobs")
		}
	}
	last0 := s.stats.LastCompactions.Load()
	err = se.Put(keys[200], []byte("v"))
	inline := s.stats.LastCompactions.Load() - last0
	s.shards[0].mu.Unlock()
	s.shards[1].mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if inline != 0 {
		t.Fatalf("the put after a Get-Protect exit merged inline (%d last-level compactions)", inline)
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.stats.MaintJobsLastLevel.Load(); n < 1 {
		t.Fatalf("MaintJobsLastLevel = %d after Flush, want >= 1", n)
	}
	sh := s.shards[target]
	sh.mu.Lock()
	n := len(sh.dumped)
	sh.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d dumped tables left after the pool's merge", n)
	}
}
