package core

import (
	"slices"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/storetest"
)

// sweepConfig is TestConfig shrunk until one scripted run issues few enough
// persist events that crashing at every single one stays fast: 4 shards of
// 32-slot MemTables over 3 levels at ratio 2, a 2 MB arena and a 128 KB log
// (32 KB segments, so the log-GC maintenance phase actually reclaims).
func sweepConfig() Config {
	cfg := TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 32
	cfg.Levels = 3
	cfg.Ratio = 2
	cfg.ArenaBytes = 2 << 20
	cfg.LogBytes = 128 << 10
	return cfg
}

func sweepOpen(mutate func(*Config)) func() (kvstore.Store, error) {
	return func() (kvstore.Store, error) {
		cfg := sweepConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := Open(cfg)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// sweepWorkload mixes scans into every sweep variant (ScanEvery): mid-script
// scans are exact-checked against the applied state, and every recovery is
// followed by a scan/get parity check — so tombstone resurrection or key loss
// visible only through the merging iterator fails the sweep at the exact
// crash point that produced it.
func sweepWorkload() storetest.SweepConfig {
	return storetest.SweepConfig{
		Seed:          1,
		Ops:           1500,
		Keys:          96,
		MaxValueLen:   120,
		FlushEvery:    20,
		MaintainEvery: 50,
		Maintenance:   storetest.StandardMaintenance(),
		ScanEvery:     75,
		Tear:          true,
	}
}

// TestCrashSweepDirect sweeps every persist event of the scripted workload in
// the default Direct-compaction mode, with a torn-write variant per point.
func TestCrashSweepDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "ChameleonDB-Direct", sweepOpen(nil), sweepWorkload())
}

// TestCrashSweepLevelByLevel covers the Level-by-Level compaction cascade
// (Figure 5a), whose table lifecycle differs from Direct's.
func TestCrashSweepLevelByLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "ChameleonDB-LbL", sweepOpen(func(c *Config) {
		c.CompactionMode = LevelByLevel
	}), sweepWorkload())
}

// TestCrashSweepWriteIntensive covers Write-Intensive Mode, where MemTables
// spill into the volatile ABI instead of persisting L0 tables — the mode with
// the most acknowledged-but-volatile state at any crash point.
func TestCrashSweepWriteIntensive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "ChameleonDB-WIM", sweepOpen(func(c *Config) {
		c.WriteIntensive = true
	}), sweepWorkload())
}

// abiWatch is a store that records, at every crash and after every recovery,
// whether an ABI held a capacity that is not a power of two; whether one such
// two-choice ABI had displaced entries; and whether an ABI was regrowing
// after a clear. It also records which capacities the ABIs held at the
// crashes.
type abiWatch struct {
	*Store
	w *abiWatched
}

type abiWatched struct {
	crashes, lineCrashes, lineRecoveries int
	movedCrashes, movedRecoveries        int
	regrownCrashes, regrownRecoveries    int
	caps                                 map[int]bool
}

// abiState reports whether any of s's ABIs is line-granular; whether any is
// a two-choice table that has displaced entries; and whether any has been
// cleared — its shard has a last level or a dump, which only a clear leaves —
// and has grown past the size every ABI restarts at.
func abiState(s *Store) (line, moved, regrown bool) {
	for _, sh := range s.shards {
		v := sh.view.Load()
		abi := v.abi()
		line = line || abi.Cap()&(abi.Cap()-1) != 0
		moved = moved || abi.TwoChoice() && abi.Displacements() > 0
		regrown = regrown || abi.Cap() > s.cfg.abiStartSlots() && slices.ContainsFunc(v.tiers, func(t tier) bool {
			return t.src == srcLast || t.src == srcDumped
		})
	}
	return line, moved, regrown
}

// countABIs adds one to each of line, moved and regrown whose state s is in.
func countABIs(s *Store, line, moved, regrown *int) {
	l, m, r := abiState(s)
	if l {
		*line++
	}
	if m {
		*moved++
	}
	if r {
		*regrown++
	}
}

func (s abiWatch) Crash() {
	s.w.crashes++
	for _, c := range abiCaps(s.Store) {
		s.w.caps[c] = true
	}
	countABIs(s.Store, &s.w.lineCrashes, &s.w.movedCrashes, &s.w.regrownCrashes)
	s.Store.Crash()
}

func (s abiWatch) Recover(c *simclock.Clock) error {
	err := s.Store.Recover(c)
	countABIs(s.Store, &s.w.lineRecoveries, &s.w.movedRecoveries, &s.w.regrownRecoveries)
	return err
}

// check fails the test when no crash point or no recovery held a
// line-granular ABI, a two-choice one that had displaced entries, or one
// regrowing after a clear.
func (w *abiWatched) check(t *testing.T, name string) {
	t.Helper()
	var caps []int
	for c := range w.caps {
		caps = append(caps, c)
	}
	slices.Sort(caps)
	t.Logf("%s: of %d crashes, %d held a line-granular ABI, %d a two-choice ABI that had displaced entries and %d an ABI regrowing after a clear; %d, %d and %d recoveries; ABI capacities at the crashes: %v",
		name, w.crashes, w.lineCrashes, w.movedCrashes, w.regrownCrashes, w.lineRecoveries, w.movedRecoveries, w.regrownRecoveries, caps)
	for _, n := range []int{w.lineCrashes, w.lineRecoveries, w.movedCrashes, w.movedRecoveries, w.regrownCrashes, w.regrownRecoveries} {
		if n == 0 {
			t.Fatalf("%s: line-granular ABIs at %d crashes and %d recoveries, displaced two-choice ABIs at %d and %d, ABIs regrowing after a clear at %d and %d: the sweep no longer reaches them",
				name, w.lineCrashes, w.lineRecoveries, w.movedCrashes, w.movedRecoveries, w.regrownCrashes, w.regrownRecoveries)
		}
	}
}

// TestCrashSweepWriteIntensiveWideKeys widens the keyset until keys are
// routinely spilled into the ABI, dumped, and then crashed over while an
// upper table still holds their previous version: the rebuilt ABI must not
// shadow the dump with it. At 216 keys the ABIs grow from 32 slots through
// two-choice capacities (48 to 96 slots at the crash points), displacing
// entries on the way, are cleared before they need their 128-slot cap, and
// restart at 32 slots to grow again; the recovery rebuild inserts newest
// first into such tables. The sweep counts the crash points that held a
// line-granular ABI, a two-choice ABI that had displaced entries and an ABI
// regrowing after a clear, and the recoveries that ended with each, and
// fails if any count is zero.
func TestCrashSweepWriteIntensiveWideKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	wl := sweepWorkload()
	wl.Keys = 216
	w := &abiWatched{caps: map[int]bool{}}
	open := sweepOpen(func(c *Config) { c.WriteIntensive = true })
	storetest.RunCrashSweep(t, "ChameleonDB-WIM-Wide", func() (kvstore.Store, error) {
		s, err := open()
		if err != nil {
			return nil, err
		}
		return abiWatch{s.(*Store), w}, nil
	}, wl)
	w.check(t, "ChameleonDB-WIM-Wide")
}

// TestCrashSweepAsync runs the sweep with the background maintenance pool
// enabled: flushes, spills, and compactions now race the script on worker
// goroutines, so persist schedules are timing-dependent (AllowUntriggered)
// and a crash can land mid-job with frozen MemTables queued. The durability
// oracle is unchanged — concurrent maintenance moves entries between
// structures but never changes the acknowledged key-value content. A stride
// keeps the wall-clock cost in line with the synchronous sweeps (goroutine
// scheduling makes each point slower than the deterministic runs).
func TestCrashSweepAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	wl := sweepWorkload()
	wl.Stride = 3
	wl.AllowUntriggered = true
	storetest.RunCrashSweep(t, "ChameleonDB-Async", sweepOpen(func(c *Config) {
		c.MaintenanceWorkers = 2
	}), wl)
}

// TestCrashSweepAsyncWriteIntensive is the async sweep in Write-Intensive
// Mode: the pool's spill path, where a crash can land with spilled entries
// held only by the log and frozen tables still queued.
func TestCrashSweepAsyncWriteIntensive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	wl := sweepWorkload()
	wl.Stride = 3
	wl.AllowUntriggered = true
	storetest.RunCrashSweep(t, "ChameleonDB-Async-WIM", sweepOpen(func(c *Config) {
		c.MaintenanceWorkers = 2
		c.WriteIntensive = true
	}), wl)
}

// TestCrashSweepAsyncWriteIntensiveWideKeys runs the async WIM sweep at a
// keyset the geometry outgrows, so the pool's spills force dumps and
// last-level compactions mid-script.
func TestCrashSweepAsyncWriteIntensiveWideKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	wl := sweepWorkload()
	wl.Keys = 216
	wl.Stride = 3
	wl.AllowUntriggered = true
	storetest.RunCrashSweep(t, "ChameleonDB-Async-WIM-Wide", sweepOpen(func(c *Config) {
		c.MaintenanceWorkers = 2
		c.WriteIntensive = true
	}), wl)
}

// TestCrashSweepBatchedPuts replays the Direct-mode sweep with runs of
// consecutive puts grouped through PutBatch — the path the server's
// shard-affine SET dispatch uses. Batched writes must replay exactly like
// sequential ones at every crash point (any subset of a crashed batch may be
// durable; the oracle's pending set accounts for all of them), and the
// mid-script and post-recovery scan checks run unchanged.
func TestCrashSweepBatchedPuts(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	wl := sweepWorkload()
	wl.BatchPuts = 8
	storetest.RunCrashSweep(t, "ChameleonDB-Batched", sweepOpen(nil), wl)
}

// TestCrashSoak layers randomized workloads over the fixed sweep script:
// transient allocation-error tolerance plus one random torn crash point per
// iteration.
func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	storetest.RunCrashSoak(t, "ChameleonDB", sweepOpen(nil), storetest.SoakConfig{
		Seed:        7,
		Iterations:  6,
		Ops:         300,
		Keys:        48,
		MaxValueLen: 100,
		FlushEvery:  20,
	})
}
