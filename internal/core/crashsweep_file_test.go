package core

import (
	"fmt"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

// fileSweepOpen builds stores for the file-backend crash sweep: each call
// opens a fresh directory, and the storetest.Reopening wrapper turns every
// Recover into a real cold reopen of that directory — so the sweep's oracle
// checks the restart path (host metadata record, manifest reattachment,
// allocator restore, log-directory rebuild) at every crash point, not the
// in-process recovery the simulated sweep covers.
func fileSweepOpen(t *testing.T, mutate func(*Config)) func() (kvstore.Store, error) {
	return watchedFileSweepOpen(t, mutate, nil)
}

// watchedFileSweepOpen is fileSweepOpen whose every incarnation, when w is
// not nil, records its ABIs at crash and after recovery (abiWatch).
func watchedFileSweepOpen(t *testing.T, mutate func(*Config), w *abiWatched) func() (kvstore.Store, error) {
	watch := func(s *Store) kvstore.Store {
		if w == nil {
			return s
		}
		return abiWatch{s, w}
	}
	return func() (kvstore.Store, error) {
		cfg := sweepConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		dir := t.TempDir()
		s, existing, err := OpenFile(cfg, dir)
		if err != nil {
			return nil, err
		}
		if existing {
			return nil, fmt.Errorf("fresh sweep directory %s reported as existing", dir)
		}
		reopen := func() (kvstore.Store, error) {
			s, existing, err := OpenFile(cfg, dir)
			if err != nil {
				return nil, err
			}
			if !existing {
				s.Close()
				return nil, fmt.Errorf("reopen of %s found no durable state", dir)
			}
			return watch(s), nil
		}
		return storetest.NewReopening(watch(s), reopen), nil
	}
}

// fileSweepWorkload is the simulated sweep's fault-plan grid (power cut at
// every persist, plus a torn-write replay of each point) over a shorter
// script: every crash point costs real fsyncs here, so the op count is sized
// to keep the exhaustive sweep inside unit-test time.
func fileSweepWorkload() storetest.SweepConfig {
	wl := sweepWorkload()
	wl.Ops = 400
	return wl
}

// TestCrashSweepFileBackend sweeps every persist event on the file backend
// with restart-per-recovery. Crash points here include the host-metadata
// persists (segment-directory updates) that only exist on this backend, so
// torn and lost metadata records are exercised at every position alongside
// the data persists.
func TestCrashSweepFileBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "ChameleonDB-File", fileSweepOpen(t, nil), fileSweepWorkload())
}

// TestCrashSweepFileBackendWIM repeats the sweep in Write-Intensive Mode,
// the mode with the most acknowledged-but-volatile state at any crash point.
func TestCrashSweepFileBackendWIM(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	storetest.RunCrashSweep(t, "ChameleonDB-File-WIM", fileSweepOpen(t, func(c *Config) {
		c.WriteIntensive = true
	}), fileSweepWorkload())
}

// TestCrashSweepFileBackendWriteIntensiveWideKeys is
// TestCrashSweepWriteIntensiveWideKeys on the file backend, every Recover a
// cold reopen, at a stride of 3: ABIs grown through two-choice capacities,
// with displaced entries, and ABIs regrowing after a clear, at crash points,
// and recoveries that rebuild them from reattached tables. It fails if no
// crash point or no recovery reaches a line-granular ABI, a two-choice one
// that had displaced entries, or one regrowing after a clear.
func TestCrashSweepFileBackendWriteIntensiveWideKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	wl := sweepWorkload()
	wl.Keys = 216
	wl.Stride = 3
	w := &abiWatched{caps: map[int]bool{}}
	storetest.RunCrashSweep(t, "ChameleonDB-File-WIM-Wide", watchedFileSweepOpen(t, func(c *Config) {
		c.WriteIntensive = true
	}, w), wl)
	w.check(t, "ChameleonDB-File-WIM-Wide")
}
