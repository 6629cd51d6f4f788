package core

import (
	"sync"
	"sync/atomic"
	"time"

	"chameleondb/internal/simclock"
)

// Maintenance: MemTable flushes and spills, upper-level compactions and the
// postponed Get-Protect merge.
//
// The paper pairs every put thread with a dedicated compaction thread
// (Section 3.3) so foreground writes never wait behind index maintenance.
// There is one mechanism for it: a put that fills its MemTable freezes the
// table (rotated out exactly as destructive boundaries already rotate tables
// for readers), publishes the new view, and hands the job that flushes or
// spills it to schedule. With Config.MaintenanceWorkers > 0 schedule queues
// the job on a bounded worker pool and the put path never executes a merge;
// with none (and during recovery replay) it runs the same job inline, on the
// caller's clock, inside the caller's sh.async bracket.
//
// Ordering invariants:
//
//   - Per-shard FIFO: a shard's jobs execute in enqueue order, one at a time
//     (the queue's active flag), so a shard's merges stay sequential while
//     different shards compact in parallel.
//   - Frozen tables are processed oldest-first, and the read path probes them
//     newest-first between the MemTable and the ABI, so version order is
//     preserved: an ABI insert from flushing frozen[0] can never shadow a
//     newer entry still sitting in frozen[1] or the MemTable.
//   - Jobs are idempotent: each re-checks its trigger condition under the
//     re-acquired shard lock and skips (JobsSkipped) when a quiesced
//     maintenance entry point (FlushAll, CompactLog) already did the work.
//
// Crash semantics: Crash() pauses the pool — queued jobs are discarded
// (their frozen tables are volatile state that dies with the power) and
// in-flight jobs run to completion before the wipe. That is legal under the
// fault model because the device fault plan drops every modelled persist
// after the power-cut instant, so a job finishing "after the crash" can no
// longer reach media; letting it finish merely picks the legal schedule in
// which the crash fell on a job boundary.
type maintPool struct {
	store   *Store
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	queues  []maintQueue
	ready   []int // shard ids with runnable work, FIFO
	paused  bool
	stopped bool
	err     error // first background job error, latched (fail-stop)

	// Mirrors for lock-free gauges.
	queued atomic.Int64
	busy   atomic.Int64

	wg       sync.WaitGroup
	stopOnce sync.Once
}

type maintQueue struct {
	jobs    []maintKind
	active  bool // a worker is executing this shard's job
	inReady bool
}

type maintKind int

const (
	// maintFlush handles one frozen MemTable: flush to L0 or spill to the
	// ABI, per the mode (WIM/GPM) in force when the job runs. Scheduled by
	// the put that fills a MemTable.
	maintFlush maintKind = iota
	// maintCompact cascades a full L0 (Direct or LevelByLevel per config).
	// Scheduled by the flush that fills L0.
	maintCompact
	// maintLastLevel merges dumped ABI tables back after a Get-Protect
	// burst ends (the postponed merge of Section 2.4). Scheduled by a
	// shard's first put after the monitor cancels Get-Protect Mode.
	maintLastLevel
)

func newMaintPool(s *Store, workers int) *maintPool {
	p := &maintPool{store: s, workers: workers, queues: make([]maintQueue, len(s.shards))}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// enqueue schedules a job for a shard. Called with the shard's mutex held
// (lock order is always sh.mu -> p.mu, never the reverse). Jobs offered to a
// paused or stopped pool are dropped: both states mean the frozen state they
// would process is about to be wiped (crash) or discarded (close).
func (p *maintPool) enqueue(shardID int, kind maintKind) {
	p.mu.Lock()
	if p.stopped || p.paused {
		p.mu.Unlock()
		return
	}
	q := &p.queues[shardID]
	q.jobs = append(q.jobs, kind)
	p.queued.Add(1)
	if !q.inReady && !q.active {
		q.inReady = true
		p.ready = append(p.ready, shardID)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *maintPool) worker() {
	defer p.wg.Done()
	c := simclock.New(0)
	p.mu.Lock()
	for {
		for !p.stopped && (p.paused || len(p.ready) == 0) {
			p.cond.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		shardID := p.ready[0]
		p.ready = p.ready[1:]
		q := &p.queues[shardID]
		q.inReady = false
		kind := q.jobs[0]
		q.jobs = q.jobs[1:]
		q.active = true
		p.queued.Add(-1)
		p.busy.Add(1)
		p.mu.Unlock()

		start := time.Now()
		err := p.store.runMaintJob(c, p.store.shards[shardID], kind)
		p.store.lat.jobDur.Record(time.Since(start).Nanoseconds())

		p.mu.Lock()
		q.active = false
		p.busy.Add(-1)
		if err != nil && p.err == nil {
			// Fail-stop: a maintenance error (arena or log exhaustion) latches
			// and surfaces on the next Put/Flush; the shard's remaining jobs
			// would hit the same wall, so they are dropped to unblock drains.
			p.err = err
			q.jobs = nil
			p.queued.Store(p.totalQueuedLocked())
		}
		if len(q.jobs) > 0 && !q.inReady && !p.paused {
			q.inReady = true
			p.ready = append(p.ready, shardID)
		}
		// Job completions are what drain barriers and stalled writers wait
		// for, so every completion broadcasts.
		p.cond.Broadcast()
	}
}

func (p *maintPool) totalQueuedLocked() int64 {
	var n int64
	for i := range p.queues {
		n += int64(len(p.queues[i].jobs))
	}
	return n
}

// pendingLocked reports whether any of the shards has queued or running work.
func (p *maintPool) pendingLocked(shardIDs []int) bool {
	for _, id := range shardIDs {
		q := &p.queues[id]
		if len(q.jobs) > 0 || q.active {
			return true
		}
	}
	return false
}

// drain blocks until every queued and in-flight job of the given shards has
// completed (the Flush barrier). Returns the latched background error, if
// any. A paused pool has already discarded its queue, so drain falls through
// once in-flight jobs finish; a stopped pool returns immediately.
func (p *maintPool) drain(shardIDs []int) error {
	p.mu.Lock()
	for !p.stopped && p.err == nil && p.pendingLocked(shardIDs) {
		p.cond.Wait()
	}
	err := p.err
	p.mu.Unlock()
	return err
}

// drainAll is drain over every shard: the store-wide barrier quiesced
// maintenance entry points (CompactLog, FlushAll, DumpABIs) take before
// mutating structures the pool might also be touching.
func (p *maintPool) drainAll() error {
	ids := make([]int, len(p.queues))
	for i := range ids {
		ids[i] = i
	}
	return p.drain(ids)
}

// pause discards queued jobs and waits for in-flight jobs to finish — the
// Crash() quiesce. See the fault-model note in the type comment: modelled
// persists after the power cut are dropped by the device plan, so letting an
// in-flight job complete cannot write to post-crash media.
func (p *maintPool) pause() {
	p.mu.Lock()
	p.paused = true
	for i := range p.queues {
		p.queues[i].jobs = nil
		p.queues[i].inReady = false
	}
	p.ready = nil
	p.queued.Store(0)
	p.cond.Broadcast()
	for p.busy.Load() > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// resume reopens the pool after Recover.
func (p *maintPool) resume() {
	p.mu.Lock()
	p.paused = false
	p.mu.Unlock()
	p.cond.Broadcast()
}

// stop terminates the workers (Store.Close). Queued jobs are discarded: the
// store is being abandoned, and durability of acknowledged writes is the log
// seal's job, never a maintenance job's.
func (p *maintPool) stop() {
	p.stopOnce.Do(func() {
		p.mu.Lock()
		p.stopped = true
		for i := range p.queues {
			p.queues[i].jobs = nil
		}
		p.ready = nil
		p.queued.Store(0)
		p.mu.Unlock()
		p.cond.Broadcast()
		p.wg.Wait()
	})
}

// runMaintJob executes one job on a worker, holding the shard's mutex for
// the duration. The shard's timeline is not reserved: maintenance runs on its
// own worker clock, off every session's critical path — which is the whole
// point.
func (s *Store) runMaintJob(c *simclock.Clock, sh *shard, kind maintKind) error {
	sh.mu.Lock()
	counter, err := sh.runJob(c, kind)
	sh.mu.Unlock()
	counter.Add(1)
	return err
}

// schedule is the one place a maintenance job is dispatched: queued for the
// pool when one is active, otherwise run here, on c, inside the caller's
// sh.async bracket. Called with sh.mu held.
func (sh *shard) schedule(c *simclock.Clock, kind maintKind) error {
	if !sh.store.maintActive() {
		_, err := sh.runJob(c, kind)
		return err
	}
	if kind == maintFlush {
		sh.store.stats.MemFreezes.Add(1)
	}
	sh.store.maint.enqueue(sh.id, kind)
	return nil
}

// runJob executes one job with sh.mu held: the one function that chooses
// flush, spill or compaction, for pool workers and inline stores alike. Each
// kind re-checks its trigger first. It returns the counter the pool books the
// job under — MaintJobsSkipped when the trigger no longer holds.
func (sh *shard) runJob(c *simclock.Clock, kind maintKind) (*atomic.Int64, error) {
	s := sh.store
	switch kind {
	case maintFlush:
		if len(sh.frozen) == 0 {
			break
		}
		// Get-Protect or Write-Intensive Mode: spill into the ABI without
		// persisting an L0 table (Sections 2.3, 2.4). Without an ABI the mode
		// is meaningless and the table flushes normally.
		if sh.abi != nil && (s.writeIntensive.Load() || s.gpmActive.Load()) {
			return &s.stats.MaintJobsSpill, sh.spillFrozen(c)
		}
		return &s.stats.MaintJobsFlush, sh.flushFrozen(c)
	case maintCompact:
		if len(sh.levels[0]) < s.cfg.Ratio {
			break
		}
		if s.cfg.CompactionMode == LevelByLevel {
			return &s.stats.MaintJobsCompact, sh.compactLevelByLevel(c)
		}
		return &s.stats.MaintJobsCompact, sh.compactDirect(c)
	case maintLastLevel:
		if len(sh.dumped) > 0 {
			return &s.stats.MaintJobsLastLevel, sh.lastLevelCompaction(c)
		}
	}
	return &s.stats.MaintJobsSkipped, nil
}

// Write backpressure (MaintenanceWorkers > 0), RocksDB-style: a put first
// observes its shard's debt — frozen MemTables not yet flushed, L0 tables not
// yet compacted — and is delayed past the slowdown thresholds or blocked past
// the stall thresholds, so writers cannot outrun the pool without bound. The
// L0 thresholds are 2r and 4r tables.
const (
	slowdownFrozenTables = 4
	stallFrozenTables    = 8
	slowdownDelay        = 50 * time.Microsecond
)

// throttle applies write backpressure before a put touches its shard: when
// the shard's published debt crosses the slowdown threshold the put sleeps
// briefly; past the stall threshold it blocks until the pool catches up.
// Thresholds are checked against the lock-free view, so an un-throttled put
// pays one atomic load and no lock.
func (se *Session) throttle(sh *shard) error {
	p := se.store.maint
	if p == nil {
		return nil
	}
	slowdownL0, stallL0 := 2*se.store.cfg.Ratio, 4*se.store.cfg.Ratio
	v := sh.view.Load()
	frozen, l0 := v.frozen, v.l0
	if frozen < slowdownFrozenTables && l0 < slowdownL0 {
		return nil
	}
	start := time.Now()
	if frozen >= stallFrozenTables || l0 >= stallL0 {
		se.store.stats.PutStalls.Add(1)
		p.mu.Lock()
		for {
			if err := se.store.readable(); err != nil {
				p.mu.Unlock()
				se.store.lat.putStall.Record(time.Since(start).Nanoseconds())
				return err
			}
			if p.err != nil {
				err := p.err
				p.mu.Unlock()
				se.store.lat.putStall.Record(time.Since(start).Nanoseconds())
				return err
			}
			v = sh.view.Load()
			if v.frozen < stallFrozenTables && v.l0 < stallL0 {
				break
			}
			p.cond.Wait()
		}
		p.mu.Unlock()
	} else {
		se.store.stats.PutSlowdowns.Add(1)
		time.Sleep(slowdownDelay)
	}
	se.store.lat.putStall.Record(time.Since(start).Nanoseconds())
	return nil
}

// maintActive reports whether schedule should queue jobs for the pool rather
// than run them inline. Recovery replay (crashed still set) always runs them
// inline: replay is a single-threaded quiesced scan whose watermark
// bookkeeping expects immediate flushes.
func (s *Store) maintActive() bool {
	return s.maint != nil && !s.crashed.Load()
}

// MaintenanceSnapshot is the pool's observable state (server INFO,
// chameleonctl stats).
type MaintenanceSnapshot struct {
	Workers      int
	QueueDepth   int64
	WorkersBusy  int64
	MemFreezes   int64
	PutSlowdowns int64
	PutStalls    int64
	JobsFlush    int64
	JobsSpill    int64
	JobsCompact  int64
	JobsLast     int64
	JobsSkipped  int64
}

// MaintenanceStats returns a snapshot of the background maintenance pipeline.
// With MaintenanceWorkers == 0 everything but the counters is zero.
func (s *Store) MaintenanceStats() MaintenanceSnapshot {
	snap := MaintenanceSnapshot{
		MemFreezes:   s.stats.MemFreezes.Load(),
		PutSlowdowns: s.stats.PutSlowdowns.Load(),
		PutStalls:    s.stats.PutStalls.Load(),
		JobsFlush:    s.stats.MaintJobsFlush.Load(),
		JobsSpill:    s.stats.MaintJobsSpill.Load(),
		JobsCompact:  s.stats.MaintJobsCompact.Load(),
		JobsLast:     s.stats.MaintJobsLastLevel.Load(),
		JobsSkipped:  s.stats.MaintJobsSkipped.Load(),
	}
	if s.maint != nil {
		snap.Workers = s.maint.workers
		snap.QueueDepth = s.maint.queued.Load()
		snap.WorkersBusy = s.maint.busy.Load()
	}
	return snap
}
