package dramhash

import (
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

func sweepOpen() (kvstore.Store, error) {
	cfg := DefaultConfig()
	cfg.Stripes = 4
	cfg.InitialCapacity = 16
	cfg.ArenaBytes = 6 << 20
	cfg.LogBytes = 2 << 20
	return Open(cfg)
}

// TestCrashSweep crashes Dram-Hash at every persist event of a scripted
// workload (with a torn-write variant per point) and checks the index the
// full log scan rebuilds against the durability oracle.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "DramHash", sweepOpen, storetest.SweepConfig{
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
	storetest.RunCrashSoak(t, "DramHash", sweepOpen, storetest.SoakConfig{
		Seed:        5,
		Iterations:  4,
		Ops:         200,
		Keys:        40,
		MaxValueLen: 64,
		FlushEvery:  20,
	})
}
