package filedev_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/device/filedev"
	"chameleondb/internal/repl"
	"chameleondb/internal/simclock"
)

// Every file sweep reopens a directory after a kill, and a kill leaves the
// page cache behind: a write-back that no barrier covered survives it as if
// it had been synced. These tests cut the power instead (filedev's power-cut
// model, export_test.go), which rolls every unsynced range back to what
// stable storage holds — the one fault that tells a write-back from a
// barrier — and then reopen the directory cold, the way go-journal's tests
// Restart() over one MemDisk. The model serializes single pwrites and
// fdatasyncs, not the store's operations: sessions, barriers and pool jobs
// interleave as they do without it, and the cut lands between two I/O calls.

// powerCutConfig is a geometry the traffic outgrows: MemTables fill every few
// dozen puts and the last levels are written past their designed size, so
// the pool flushes and compacts the whole time the sessions write.
func powerCutConfig() core.Config {
	cfg := core.TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 32
	cfg.Levels = 3
	cfg.Ratio = 2
	cfg.ArenaBytes = 40 << 20
	cfg.LogBytes = 24 << 20
	cfg.MaintenanceWorkers = 2
	return cfg
}

// openCuttable opens dir under the power-cut model and returns the store with
// the model that cuts its power.
func openCuttable(t *testing.T, cfg core.Config, dir string) (*core.Store, *filedev.PowerCuts) {
	t.Helper()
	cut := filedev.ModelPowerCuts()
	t.Cleanup(cut.Restore)
	st, _, err := core.OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, cut
}

// reopen removes the power-cut model, once the cut store is closed, and runs
// OpenFile and Recover on the directory it left behind.
func reopen(t *testing.T, cfg core.Config, dir string, cut *filedev.PowerCuts) *core.Store {
	t.Helper()
	cut.Restore()
	st, existing, err := core.OpenFile(cfg, dir)
	if err != nil {
		t.Fatalf("reopen after the power cut: %v", err)
	}
	if !existing {
		t.Fatal("reopen after the power cut found no store")
	}
	if err := st.Recover(simclock.New(0)); err != nil {
		st.Close()
		t.Fatalf("recover after the power cut: %v", err)
	}
	return st
}

// version decodes a value the traffic wrote.
func version(t *testing.T, key string, v []byte) int {
	t.Helper()
	n, err := strconv.Atoi(string(v))
	if err != nil {
		t.Fatalf("key %s holds %q, which no writer wrote", key, v)
	}
	return n
}

// bulkKeys is what the never-flushed sessions cycle through: a few keys a
// shard, so their puts fill no MemTable and every entry they lose to a cut is
// one no index checkpoint made durable.
const bulkKeys = 16

// TestPowerCutKeepsAcknowledgedWrites runs three kinds of traffic at once —
// bulk puts that never flush (their chunks seal mid-batch and are only
// written back), two sessions of depth-16 PutBatch+Flush windows, and the
// maintenance pool flushing and compacting under both — cuts the power at a
// seeded point, and reopens. Recovery must not fail, and every acknowledged
// key must read its acknowledged version or a newer one.
func TestPowerCutKeepsAcknowledgedWrites(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			powerCutRound(t, seed)
		})
	}
}

func powerCutRound(t *testing.T, seed int64) {
	cfg := powerCutConfig()
	dir := t.TempDir()
	st, cut := openCuttable(t, cfg, dir)
	rng := rand.New(rand.NewSource(seed))
	cutAfter := int64(8 + rng.Intn(160)) // acknowledged windows before the cut

	var (
		stop    atomic.Bool
		windows atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		acked   = make(map[string]int) // key -> newest acknowledged version
		cutErr  = make(chan error, 1)
	)
	wg.Add(1)
	go func() { // bulk puts over a few keys per shard, never flushed
		defer wg.Done()
		se := st.NewSession(simclock.New(0))
		for i := 0; i < 200_000 && !stop.Load(); i++ { // at most 8 MB of log
			if se.Put(fmt.Appendf(nil, "bulk-%02d", i%bulkKeys), strconv.AppendInt(nil, int64(i), 10)) != nil {
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // depth-16 windows over enough keys to keep the pool busy
			defer wg.Done()
			se := st.NewSession(simclock.New(0)).(*core.Session)
			keys, vals := make([][]byte, 16), make([][]byte, 16)
			for v := 0; !stop.Load(); v++ {
				for i := range keys {
					keys[i] = fmt.Appendf(keys[i][:0], "win%d-%03d", w, (v*16+i)%160)
					vals[i] = strconv.AppendInt(vals[i][:0], int64(v), 10)
				}
				if se.PutBatch(keys, vals) != nil || se.Flush() != nil {
					return
				}
				mu.Lock()
				for _, k := range keys {
					acked[string(k)] = v
				}
				mu.Unlock()
				// The cut follows the acknowledgement at once: nothing but
				// the Flush that returned stands between this window and
				// the power failure.
				if windows.Add(1) == cutAfter {
					cutErr <- cut.Cut()
					stop.Store(true)
				}
			}
		}(w)
	}
	select {
	case err := <-cutErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("only %d windows acknowledged in a minute", windows.Load())
	}
	wg.Wait()
	st.Close()

	st = reopen(t, cfg, dir, cut)
	defer st.Close()
	se := st.NewSession(simclock.New(0))
	for k, want := range acked {
		v, ok, err := se.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("acknowledged key %s after the power cut: ok=%v err=%v", k, ok, err)
		}
		if got := version(t, k, v); got < want {
			t.Fatalf("acknowledged key %s came back at version %d, acknowledged %d", k, got, want)
		}
	}
	for i := 0; i < bulkKeys; i++ {
		k := fmt.Sprintf("bulk-%02d", i)
		if v, ok, err := se.Get([]byte(k)); err != nil {
			t.Fatalf("%s after the power cut: %v", k, err)
		} else if ok {
			version(t, k, v)
		}
	}
	if err := se.Put([]byte("after-the-cut"), []byte("1")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := se.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
}

// TestPowerCutReplicaHoldsNothingThePrimaryLost: a replica must never hold an
// entry its primary can lose. The primary acknowledges a few windows and
// waits for the replica. Then one session bulk-puts without a flush — chunks
// sealed and only written back, and an open chunk never written at all — and
// a second session acknowledges one write, whose barrier wakes the shipper
// with the bulk session's open chunk below it. The heartbeat is an hour, so
// that wake-up alone decides what ships. After the primary's power is cut and
// it recovers, every key the replica applied must be on the primary at the
// replica's version or a newer one.
func TestPowerCutReplicaHoldsNothingThePrimaryLost(t *testing.T) {
	cfg := powerCutConfig()
	dir := t.TempDir()
	pst, cut := openCuttable(t, cfg, dir)
	fast := repl.Config{Heartbeat: 2 * time.Millisecond, ReconnectDelay: 5 * time.Millisecond, DialTimeout: time.Second}
	pcfg := fast
	pcfg.Addr, pcfg.Heartbeat = "127.0.0.1:0", time.Hour
	pn, err := repl.Start(pst, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := powerCutConfig()
	rcfg.MaintenanceWorkers = 0
	rst, err := core.Open(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rc := fast
	rc.PrimaryAddr, rc.ID = pn.Addr(), "replica"
	rn, err := repl.Start(rst, rc)
	if err != nil {
		t.Fatal(err)
	}

	var keys []string
	se := pst.NewSession(simclock.New(0)).(*core.Session)
	for v := 0; v < 4; v++ {
		for i := 0; i < 16; i++ {
			k := fmt.Sprintf("win-%02d", i)
			if err := se.Put([]byte(k), strconv.AppendInt(nil, int64(v), 10)); err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				keys = append(keys, k)
			}
		}
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := pn.Wait(se, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT = %d, %v", got, err)
	}
	bulk := pst.NewSession(simclock.New(0))
	for i := 0; i < 650; i++ { // about six chunks, the last one open
		k := fmt.Sprintf("bulk-%02d", i%bulkKeys)
		if i < bulkKeys {
			keys = append(keys, k)
		}
		if err := bulk.Put([]byte(k), strconv.AppendInt(nil, int64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Put([]byte("acked"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "acked")
	time.Sleep(200 * time.Millisecond) // a loose shipper ships and the replica applies

	if err := cut.Cut(); err != nil {
		t.Fatal(err)
	}
	rn.Close()
	pn.Close()
	pst.Close()

	held := make(map[string]int)
	rse := rst.NewSession(simclock.New(0))
	for _, k := range keys {
		v, ok, err := rse.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			held[k] = version(t, k, v)
		}
	}
	if len(held) < 16 {
		t.Fatalf("the replica holds %d keys, want at least the 16 WAIT covered", len(held))
	}
	pst = reopen(t, cfg, dir, cut)
	defer pst.Close()
	pse := pst.NewSession(simclock.New(0))
	for k, rv := range held {
		v, ok, err := pse.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("the replica holds %s at version %d; the primary lost it in the power cut", k, rv)
		}
		if pv := version(t, k, v); pv < rv {
			t.Fatalf("the replica holds %s at version %d; the primary came back at %d", k, rv, pv)
		}
	}
}
