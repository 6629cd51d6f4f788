package pmemlsm

import (
	"testing"

	"chameleondb/internal/core"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

func sweepOpen(v Variant) func() (kvstore.Store, error) {
	return func() (kvstore.Store, error) {
		cfg := core.TestConfig()
		cfg.Shards = 4
		cfg.MemTableSlots = 32
		cfg.Levels = 3
		cfg.Ratio = 2
		cfg.ArenaBytes = 2 << 20
		cfg.LogBytes = 128 << 10
		s, err := Open(cfg, v)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// TestCrashSweep crashes the Pmem-LSM-NF baseline at every persist event of a
// scripted workload (with a torn-write variant per point) and checks the
// recovered state against the durability oracle.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "PmemLSM-NF", sweepOpen(NF), storetest.SweepConfig{
		Seed:          2,
		Ops:           600,
		Keys:          64,
		MaxValueLen:   100,
		FlushEvery:    20,
		MaintainEvery: 100,
		Maintenance:   storetest.StandardMaintenance(),
		Tear:          true,
	})
}

func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	storetest.RunCrashSoak(t, "PmemLSM-NF", sweepOpen(NF), storetest.SoakConfig{
		Seed:        3,
		Iterations:  4,
		Ops:         250,
		Keys:        48,
		MaxValueLen: 80,
		FlushEvery:  20,
	})
}
