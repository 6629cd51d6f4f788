package pmemhash

import (
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

// sweepOpen keeps the arena small: Crash reloads the arena below its
// allocator mark at every crash point, and Pmem-Hash persists on every put.
// Its 48 keys in 8 192 slots never split a CCEH segment; cceh's
// TestCrashInSplit crashes inside a split.
func sweepOpen() (kvstore.Store, error) {
	cfg := DefaultConfig()
	cfg.Stripes = 4
	cfg.InitialDepth = 1
	cfg.ArenaBytes = 6 << 20
	cfg.LogBytes = 2 << 20
	return Open(cfg)
}

// TestCrashSweep crashes Pmem-Hash at every persist event of a scripted
// workload (with a torn-write variant per point) and checks the recovered
// CCEH tables against the durability oracle: an index slot persisted ahead
// of a log entry the crash erased must read as a miss.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "PmemHash", sweepOpen, storetest.SweepConfig{
		Seed:        4,
		Ops:         800,
		Keys:        48,
		MaxValueLen: 80,
		FlushEvery:  15,
		Tear:        true,
	})
}

func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	storetest.RunCrashSoak(t, "PmemHash", sweepOpen, storetest.SoakConfig{
		Seed:        5,
		Iterations:  4,
		Ops:         200,
		Keys:        40,
		MaxValueLen: 64,
		FlushEvery:  20,
	})
}
