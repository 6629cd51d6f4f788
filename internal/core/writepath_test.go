package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// The write path with MaintenanceWorkers > 0 is asynchronous: puts freeze
// full MemTables and a worker pool runs the flushes and compactions. These
// tests drive it with real goroutines (run with -race) and pin the
// acceptance criteria: the pool does the work the puts generate, backpressure
// engages slowdown before stall, and Flush is a barrier over the session's
// dirty shards.

// asyncTestConfig is TestConfig plus a small maintenance pool.
func asyncTestConfig(workers int) Config {
	cfg := TestConfig()
	cfg.MaintenanceWorkers = workers
	return cfg
}

// shardKeys generates n distinct keys that all route to the given shard.
func shardKeys(s *Store, shardID, n int) [][]byte {
	keys := make([][]byte, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("wp-%d-%06d", shardID, i))
		if s.shardFor(xhash.Sum64(k)) == s.shards[shardID] {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestMaintenanceStress is the pipeline's -race proof: concurrent
// Put/Get/Delete/Flush workers with the pool enabled, then quiesce, crash
// mid-queue, recover, verify, and repeat. The job counters prove the pool
// actually did the work the puts generated.
func TestMaintenanceStress(t *testing.T) {
	cfg := asyncTestConfig(2)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const (
		workers   = 6
		keySpace  = 2048
		opsPerGor = 3000
		rounds    = 3
	)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers*2)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				se := s.NewSession(simclock.New(0)).(*Session)
				defer func() {
					if err := se.Release(); err != nil {
						errs <- err
					}
				}()
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				for op := 0; op < opsPerGor; op++ {
					i := rng.Intn(keySpace)
					switch {
					case w < workers/3: // readers
						v, ok, err := se.Get(stressKey(i))
						if err != nil {
							errs <- fmt.Errorf("get: %w", err)
							return
						}
						if ok && !bytes.Equal(v, stressValue(i)) {
							errs <- fmt.Errorf("key %d: got %q, want %q", i, v, stressValue(i))
							return
						}
					case rng.Intn(16) == 0: // occasional delete
						if err := se.Delete(stressKey(i)); err != nil {
							errs <- fmt.Errorf("delete: %w", err)
							return
						}
					case rng.Intn(200) == 0: // occasional durability barrier
						if err := se.Flush(); err != nil {
							errs <- fmt.Errorf("flush: %w", err)
							return
						}
					default:
						if err := se.Put(stressKey(i), stressValue(i)); err != nil {
							errs <- fmt.Errorf("put: %w", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Crash with jobs potentially still queued and in flight: the pool
		// must quiesce, the frozen tables die with the power, and recovery
		// replays their entries from the log.
		s.Crash()
		rc := simclock.New(0)
		if err := s.Recover(rc); err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		if err := s.VerifyIntegrity(rc); err != nil {
			t.Fatalf("round %d: verify: %v", round, err)
		}
		se := s.NewSession(simclock.New(rc.Now())).(*Session)
		for i := 0; i < keySpace; i += 97 {
			v, ok, err := se.Get(stressKey(i))
			if err != nil {
				t.Fatalf("round %d: post-recovery get: %v", round, err)
			}
			if ok && !bytes.Equal(v, stressValue(i)) {
				t.Fatalf("round %d: key %d recovered as %q, want %q", round, i, v, stressValue(i))
			}
		}
		if err := se.Release(); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.MemFreezes == 0 {
		t.Fatal("no MemTables were frozen; the async path never engaged")
	}
	if st.MaintJobsFlush+st.MaintJobsSpill == 0 {
		t.Fatal("the pool ran no flush/spill jobs despite freezes")
	}
	if st.Flushes == 0 {
		t.Fatal("no flushes happened at all")
	}
}

// TestBackpressureSlowdownThenStall pins the backpressure ordering: as a
// shard's frozen-table debt grows, puts are first delayed (slowdown) and only
// block (stall) past the higher threshold. The pool's one worker is wedged on
// a mutex the test holds, so debt accumulates deterministically past
// stallFrozenTables: 8-slot MemTables freeze every six or seven puts.
func TestBackpressureSlowdownThenStall(t *testing.T) {
	cfg := TestConfig()
	cfg.MemTableSlots = 8
	cfg.MaintenanceWorkers = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Wedge the single worker: hold shard 0's mutex and hand the pool a job
	// for it. runMaintJob blocks acquiring the lock, so jobs for every other
	// shard sit queued behind it.
	blocked := s.shards[0]
	blocked.mu.Lock()
	s.maint.enqueue(0, maintFlush)
	waitBusy := time.Now()
	for s.maint.busy.Load() == 0 {
		if time.Since(waitBusy) > 10*time.Second {
			blocked.mu.Unlock()
			t.Fatal("worker never picked up the wedge job")
		}
		time.Sleep(time.Millisecond)
	}

	// Once a put stalls, release the wedge so the pool can drain the debt
	// and the stalled put can proceed.
	release := make(chan struct{})
	go func() {
		defer close(release)
		for s.stats.PutStalls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		blocked.mu.Unlock()
	}()

	// Write keys routed to shard 1 until its frozen debt walks through both
	// thresholds. sawSlowdownFirst captures the ordering: a moment where
	// slowdowns had fired but no stall had yet.
	se := s.NewSession(simclock.New(0)).(*Session)
	defer se.Release()
	keys := shardKeys(s, 1, 96)
	sawSlowdownFirst := false
	for _, k := range keys {
		if err := se.Put(k, []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if s.stats.PutStalls.Load() == 0 && s.stats.PutSlowdowns.Load() > 0 {
			sawSlowdownFirst = true
		}
	}
	<-release

	if !sawSlowdownFirst {
		t.Fatalf("no slowdown observed before the first stall (slowdowns=%d stalls=%d)",
			s.stats.PutSlowdowns.Load(), s.stats.PutStalls.Load())
	}
	if s.stats.PutStalls.Load() == 0 {
		t.Fatal("debt above stallFrozenTables never stalled a put")
	}
	// The wedge job itself must have been a no-op: shard 0 had nothing frozen.
	if s.stats.MaintJobsSkipped.Load() == 0 {
		t.Fatal("the empty-shard wedge job was not skipped as idempotent")
	}
}

// TestFlushBarrierDrainsDirtyShards pins the durable-ack contract: when Flush
// returns, every maintenance job for the shards this session wrote has
// completed — no frozen MemTable of its writes is still awaiting a flush.
func TestFlushBarrierDrainsDirtyShards(t *testing.T) {
	cfg := asyncTestConfig(2)
	cfg.MemTableSlots = 8 // freeze often
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	se := s.NewSession(simclock.New(0)).(*Session)
	defer se.Release()
	for i := 0; i < 600; i++ {
		if err := se.Put(stressKey(i), stressValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.stats.MemFreezes.Load() == 0 {
		t.Fatal("workload never froze a MemTable; barrier untested")
	}
	// This session is the only writer, so after its barrier the whole pool
	// must be quiet and no shard may still hold frozen tables.
	snap := s.MaintenanceStats()
	if snap.QueueDepth != 0 || snap.WorkersBusy != 0 {
		t.Fatalf("pool not drained after Flush: depth=%d busy=%d", snap.QueueDepth, snap.WorkersBusy)
	}
	for _, sh := range s.shards {
		if n := sh.view.Load().frozen; n != 0 {
			t.Fatalf("shard %d still has %d frozen tables after Flush", sh.id, n)
		}
	}
	// The writes must be durable: crash, recover, and read them back.
	s.Crash()
	rc := simclock.New(0)
	if err := s.Recover(rc); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(rc.Now())).(*Session)
	defer se2.Release()
	for i := 0; i < 600; i += 13 {
		v, ok, err := se2.Get(stressKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(v, stressValue(i)) {
			t.Fatalf("key %d not durable across crash: ok=%v v=%q", i, ok, v)
		}
	}
}

// TestSyncFallbackNoAsyncMachinery pins the MaintenanceWorkers=0 contract:
// the pool is never built, no freeze is handed to one, and the jobs run
// inline on the writer's clock, which the deterministic virtual-time
// experiments rely on.
func TestSyncFallbackNoAsyncMachinery(t *testing.T) {
	s, err := Open(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.maint != nil {
		t.Fatal("pool built despite MaintenanceWorkers=0")
	}
	se := s.NewSession(simclock.New(0)).(*Session)
	defer se.Release()
	for i := 0; i < 2000; i++ {
		if err := se.Put(stressKey(i), stressValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemFreezes != 0 || st.PutSlowdowns != 0 || st.PutStalls != 0 {
		t.Fatalf("async counters moved on a synchronous store: %+v", st)
	}
	if st.Flushes == 0 {
		t.Fatal("synchronous store never flushed inline")
	}
	snap := s.MaintenanceStats()
	if snap.Workers != 0 || snap.QueueDepth != 0 {
		t.Fatalf("maintenance snapshot non-zero on a synchronous store: %+v", snap)
	}
}

// TestLogGCWithQueuedMaintenance is the regression test for the gc.go
// checkpoint race: CompactLog must drain queued jobs before checkpointing and
// its forced last-level fallback must re-check occupancy under the
// re-acquired lock (skipping when a job already merged the spill) instead of
// blindly compacting. Write-Intensive Mode with a live pool queues spill jobs
// right up to the CompactLog call.
func TestLogGCWithQueuedMaintenance(t *testing.T) {
	cfg := asyncTestConfig(2)
	cfg.MemTableSlots = 8
	cfg.WriteIntensive = true
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	se := s.NewSession(simclock.New(0)).(*Session)
	const keys = 400
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			if err := se.Put(stressKey(i), stressValue(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := se.Release(); err != nil {
		t.Fatal(err)
	}

	// GC immediately, twice: the first run drains the pool, checkpoints, and
	// may force last-level compactions; the second must be idempotent (the
	// first left every watermark past its target).
	c := simclock.New(0)
	if _, err := s.CompactLog(c, s.Log().SegmentSize()); err != nil {
		t.Fatalf("first CompactLog: %v", err)
	}
	if _, err := s.CompactLog(c, s.Log().SegmentSize()); err != nil {
		t.Fatalf("second CompactLog: %v", err)
	}
	if err := s.VerifyIntegrity(c); err != nil {
		t.Fatalf("verify after GC: %v", err)
	}

	// Everything must survive a crash: no recovery watermark may point into
	// the reclaimed region.
	s.Crash()
	rc := simclock.New(0)
	if err := s.Recover(rc); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(rc.Now())).(*Session)
	defer se2.Release()
	for i := 0; i < keys; i += 7 {
		v, ok, err := se2.Get(stressKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(v, stressValue(i)) {
			t.Fatalf("key %d lost after GC+crash: ok=%v v=%q", i, ok, v)
		}
	}
}
