package novelsm

import (
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

func sweepOpen() (kvstore.Store, error) {
	cfg := Config{
		MemTableBytes: 4 << 10,
		ArenaBytes:    16 << 20,
	}
	return Open(cfg)
}

// TestCrashSweep crashes NoveLSM at every persist event of a scripted
// workload (with a torn-write variant per point) and checks the recovered
// state against the durability oracle. NoveLSM's persistent MemTable makes
// acknowledged puts durable immediately, so its oracle window is the
// tightest of the baselines.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "NoveLSM", sweepOpen, storetest.SweepConfig{
		Seed:        6,
		Ops:         300,
		Keys:        48,
		MaxValueLen: 80,
		FlushEvery:  20,
		Tear:        true,
	})
}

func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	storetest.RunCrashSoak(t, "NoveLSM", sweepOpen, storetest.SoakConfig{
		Seed:        7,
		Iterations:  4,
		Ops:         200,
		Keys:        40,
		MaxValueLen: 64,
		FlushEvery:  20,
	})
}
