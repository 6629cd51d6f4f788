package matrixkv

import (
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

func sweepOpen() (kvstore.Store, error) {
	cfg := Config{
		MemTableBytes: 2 << 10,
		ArenaBytes:    16 << 20,
		WALBytes:      1 << 20,
	}
	return Open(cfg)
}

// TestCrashSweep crashes MatrixKV at every persist event of a scripted
// workload (with a torn-write variant per point) and checks the recovered
// state against the durability oracle.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "MatrixKV", sweepOpen, storetest.SweepConfig{
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
	storetest.RunCrashSoak(t, "MatrixKV", sweepOpen, storetest.SoakConfig{
		Seed:        5,
		Iterations:  4,
		Ops:         200,
		Keys:        40,
		MaxValueLen: 64,
		FlushEvery:  20,
	})
}
