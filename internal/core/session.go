package core

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"time"

	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// ErrCrashed is returned by operations issued between Crash and Recover.
var ErrCrashed = errors.New("core: store has crashed; call Recover first")

// ErrClosed is returned by session operations issued after Store.Close. A
// server draining connections can race a late session against shutdown; the
// session fails cleanly here instead of touching a store being discarded.
var ErrClosed = errors.New("core: store is closed")

// ErrNotInteger is returned by IncrBy when the stored value is not a decimal
// 64-bit integer, or the increment would overflow one.
var ErrNotInteger = errors.New("value is not an integer or out of range")

// ErrReadOnly is returned by client write operations while the store serves
// as a replica (Store.SetReadOnly). The text matches Redis's -READONLY reply
// so the serving layer can pass it straight to the wire.
var ErrReadOnly = errors.New("READONLY You can't write against a read only replica.")

// Session is a per-worker handle on the store: it owns a virtual clock, a
// private log appender (the DRAM write batch of Section 2.5), and a reader
// epoch slot for the lock-free get path. Not safe for concurrent use.
type Session struct {
	store *Store
	clock *simclock.Clock
	ap    *wlog.Appender
	slot  *readerSlot

	// dirtyIDs lists the shards this session has written since its last
	// Flush, each once (isDirty is the membership test). With maintenance
	// workers enabled, Flush drains exactly these shards' pending jobs — the
	// barrier that preserves the server's durable-ack contract. Both are
	// reused across flushes; nil while the pool is off.
	dirtyIDs []int
	isDirty  []bool

	// nextFlush is the earliest start of this session's next Flush on the
	// file backend; see flushSpacing.
	nextFlush time.Time

	// PutBatch scratch, reused across calls so a steady stream of batches
	// allocates nothing.
	bhash []uint64
	bdone []bool
}

var _ kvstore.ServingSession = (*Session)(nil)

// NewSession implements kvstore.Store.
func (s *Store) NewSession(c *simclock.Clock) kvstore.Session {
	return &Session{store: s, clock: c, ap: s.log.NewAppender(), slot: s.em.register()}
}

// Clock returns the session's virtual clock.
func (se *Session) Clock() *simclock.Clock { return se.clock }

// Put implements kvstore.Session. Neither key nor value is retained: the log
// appender copies both into its batch chunk before Put returns, so the caller
// may immediately reuse the backing arrays (the RESP server passes spans of
// its per-connection read buffer straight through here).
func (se *Session) Put(key, value []byte) error {
	if se.store.readOnly.Load() {
		return ErrReadOnly
	}
	return se.write(key, value, 0)
}

// Delete implements kvstore.Session: a tombstone append plus index update.
func (se *Session) Delete(key []byte) error {
	if se.store.readOnly.Load() {
		return ErrReadOnly
	}
	return se.write(key, nil, wlog.FlagTombstone)
}

// ApplyReplicated is the replication apply entry point: one shipped log entry
// applied through the exact write path a local put takes — own-log append,
// MemTable insert, maintenance, backpressure — but exempt from the replica
// read-only gate. The entry takes a fresh local LSN; the primary-LSN ordering
// is the stream's job (internal/repl applies frames in LSN order).
func (se *Session) ApplyReplicated(key, value []byte, tombstone bool) error {
	var flags uint16
	if tombstone {
		flags = wlog.FlagTombstone
	}
	return se.write(key, value, flags)
}

func (se *Session) write(key, value []byte, flags uint16) error {
	if err := se.store.readable(); err != nil {
		return err
	}
	c := se.clock
	arrive := c.Now()
	c.Advance(device.CostHash64)
	h := se.store.hashFn(key)
	// Copying the entry into the DRAM batch buffer.
	c.Advance(int64(float64(wlog.EntrySize(len(key), len(value))) * device.CostDRAMSeqPerByte))

	sh := se.store.shardFor(h)
	if err := se.critical(sh, func() error { return se.appendLocked(sh, h, key, value, flags) }); err != nil {
		return err
	}
	// Tombstones are deletes, not puts: keeping the two apart lets reports
	// reconcile puts+deletes against log entries appended.
	if flags&wlog.FlagTombstone != 0 {
		se.store.stats.Deletes.Add(1)
	} else {
		se.store.stats.Puts.Add(1)
	}
	se.store.lat.put.Record(c.Now() - arrive)
	return nil
}

// PutBatch implements kvstore.BatchWriter: n independent puts with
// shard-affine dispatch. Keys are hashed up front, then grouped by destination
// shard (in first-appearance order, preserving index order within each group)
// and each group is applied under a single shard-lock acquisition and a single
// timeline reservation — the per-op lock/reserve overhead of n sequential Puts
// collapses to one per shard touched. Writes to the same key always hash to
// the same shard and keep their relative order, so the final state is
// identical to n sequential Puts. Durability is unchanged: entries land in the
// session's log batch in dispatch order and become durable on the next Flush,
// exactly like Put. On error, an arbitrary subset of the batch (never a
// same-key reordering) may have been applied; callers needing strict
// sequential failure semantics should fall back to Put. Like Put, neither keys
// nor values are retained after return.
func (se *Session) PutBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return errors.New("core: PutBatch: keys and values length mismatch")
	}
	if len(keys) == 0 {
		return nil
	}
	if se.store.readOnly.Load() {
		return ErrReadOnly
	}
	if err := se.store.readable(); err != nil {
		return err
	}
	c := se.clock
	arrive := c.Now()
	// Hash every key and charge the per-entry hash + DRAM batch-copy costs up
	// front, exactly as n sequential writes would.
	se.bhash = se.bhash[:0]
	se.bdone = se.bdone[:0]
	for i, key := range keys {
		c.Advance(device.CostHash64)
		se.bhash = append(se.bhash, se.store.hashFn(key))
		c.Advance(int64(float64(wlog.EntrySize(len(key), len(values[i]))) * device.CostDRAMSeqPerByte))
		se.bdone = append(se.bdone, false)
	}
	for i := range keys {
		if se.bdone[i] {
			continue
		}
		sh := se.store.shardFor(se.bhash[i])
		applied := int64(0)
		err := se.critical(sh, func() error {
			for j := i; j < len(keys); j++ {
				if se.bdone[j] || se.store.shardFor(se.bhash[j]) != sh {
					continue
				}
				if err := se.appendLocked(sh, se.bhash[j], keys[j], values[j], 0); err != nil {
					return err
				}
				se.bdone[j] = true
				applied++
			}
			return nil
		})
		se.store.stats.Puts.Add(applied)
		if err != nil {
			return err
		}
	}
	// Every op in the batch completes when the batch does; record them at the
	// batch's end-to-end latency like n puts that all waited for the slowest.
	end := c.Now()
	for range keys {
		se.store.lat.put.Record(end - arrive)
	}
	return nil
}

// critical runs fn as one write critical section on sh: under sh.mu, with
// the lock hold time — minus the background flush/compaction time fn
// bracketed in sh.asyncNs — booked on the shard's timeline. Every write path
// goes through here.
func (se *Session) critical(sh *shard, fn func() error) error {
	if err := se.admitWrite(sh); err != nil {
		return err
	}
	c := se.clock
	sh.mu.Lock()
	opStart := c.Now()
	sh.asyncNs = 0
	err := fn()
	// Background flush/compaction time stalls this worker (its core hosts
	// the compaction thread) but does not extend the shard's critical
	// section for other workers.
	dur := c.Now() - opStart - sh.asyncNs
	sh.mu.Unlock()
	c.AdvanceTo(sh.tl.Reserve(opStart, dur))
	return err
}

// admitWrite applies write-path backpressure and dirty-shard tracking before
// the shard lock is taken: a writer never blocks other writers while it waits
// for the pool to work off debt. No-op on synchronous stores.
func (se *Session) admitWrite(sh *shard) error {
	if !se.store.maintActive() {
		return nil
	}
	if err := se.throttle(sh); err != nil {
		return err
	}
	if se.isDirty == nil {
		se.isDirty = make([]bool, len(se.store.shards))
		se.dirtyIDs = make([]int, 0, len(se.store.shards))
	}
	if !se.isDirty[sh.id] {
		se.isDirty[sh.id] = true
		se.dirtyIDs = append(se.dirtyIDs, sh.id)
	}
	return nil
}

// Get implements kvstore.Session: MemTable, then ABI, then (dumped tables,)
// then last level — at most three structures in the common case (Figure 6b)
// — followed by one log read for the value. The returned value is a fresh
// copy; callers that reuse a buffer across gets should prefer GetInto.
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	return se.GetInto(key, nil)
}

// GetInto implements kvstore.ValueReader: the probe and log read of Get, with
// the value appended to dst (which may be nil) instead of freshly allocated.
// The returned slice is dst extended — it aliases dst's backing array whenever
// capacity suffices, so a caller looping `buf, ok, _ = se.GetInto(key, buf[:0])`
// performs zero allocations once its buffer has grown to the working value
// size. On a miss or error dst is returned unchanged. The result is always a
// copy the caller owns; it never aliases the store's log or tables.
func (se *Session) GetInto(key, dst []byte) ([]byte, bool, error) {
	if err := se.store.readable(); err != nil {
		return dst, false, err
	}
	c := se.clock
	arrive := c.Now()
	c.Advance(device.CostHash64)
	h := se.store.hashFn(key)

	sh := se.store.shardFor(h)
	// Lock-free probe: pin a reader epoch so no compaction recycles the tables
	// the published view references mid-probe, load the view, probe, unpin.
	// No mutex is acquired anywhere on this path — MemTable and ABI probes
	// are seqlock-validated, the persisted tables are immutable, and the log
	// read resolves segments through atomics.
	se.slot.pin(se.store.em)
	e, src, live, err := sh.resolve(c, sh.view.Load(), h, key)
	se.slot.unpin()
	if live {
		dst = append(dst, e.Value...)
	}
	// The source is counted once the outcome is known, so the per-source
	// counters (and their latency histograms) always sum consistently with
	// what callers observed. A tombstone is a definitive answer from its
	// structure and counts there even though the get reports absence.
	se.store.stats.countGet(src)
	now := c.Now()
	se.store.lat.get[src].Record(now - arrive)
	se.store.recordGetLatency(now, now-arrive)
	return dst, live, err
}

// resolve returns key's current log entry as view v indexes it, the structure
// that answered, and whether the key is live (present and not tombstoned).
// Get and the read-modify-write ops (under sh.mu) share it. The caller owns
// v's lifetime (epoch pin or sh.mu).
//
// Collision fallback: a 64-bit hash match does not prove key identity, so a
// candidate whose full key (read from the log) differs is stepped past and
// the probe resumes at older tiers. skip > 0 passes only ever run with
// engineered collisions — the real mixer makes them a 2^-64 event — so the
// common case is exactly one pass.
func (sh *shard) resolve(c *simclock.Clock, v *shardView, h uint64, key []byte) (wlog.Entry, getSource, bool, error) {
	for skip := 0; ; skip++ {
		slot, src, ok := sh.lookupView(c, v, h, skip)
		if !ok {
			return wlog.Entry{}, src, false, nil
		}
		e, err := sh.store.log.Read(c, slot.LSN())
		if err != nil {
			if slot.Tombstone() {
				// Log GC drops settled tombstone entries while their index
				// slots survive, so the slot may reference reclaimed bytes.
				// GC only settles a tombstone that is the live version of its
				// hash — no older version survives below it — so the slot
				// stays authoritative: the key is deleted.
				return wlog.Entry{}, src, false, nil
			}
			return wlog.Entry{}, src, false, err
		}
		if !bytes.Equal(e.Key, key) {
			// A full 64-bit hash collision between distinct keys: this
			// candidate belongs to someone else, but an older tier may still
			// hold the probed key — retry past it.
			sh.store.stats.HashMismatches.Add(1)
			continue
		}
		return e, src, !slot.Tombstone(), nil
	}
}

// appendLocked appends one entry to the session's log batch and indexes it in
// the MemTable, then runs a postponed Get-Protect merge if one is due. Called
// inside critical; the caller has already charged the DRAM batch-copy cost.
func (se *Session) appendLocked(sh *shard, h uint64, key, value []byte, flags uint16) error {
	c := se.clock
	lsn, err := se.ap.Append(c, h, key, value, flags)
	if err != nil {
		return err
	}
	if err := sh.insertMem(c, h, lsn, flags&wlog.FlagTombstone != 0); err != nil {
		return err
	}
	if sh.pendingMerge.Load() && !se.store.gpmActive.Load() {
		// A postponed Get-Protect dump is merged back once the burst is
		// over (Section 2.4): the shard's first put after it schedules the
		// merge.
		sh.pendingMerge.Store(false)
		if len(sh.dumped) > 0 {
			return sh.async(c, func() error { return sh.schedule(c, maintLastLevel) })
		}
	}
	return nil
}

// DeleteIfPresent implements kvstore.ConditionalDeleter: probe and tombstone
// run under one shard-lock acquisition, so the existed answer is exact even
// with concurrent writers — the TOCTOU a Get-then-Delete pair has across
// sessions cannot happen here.
func (se *Session) DeleteIfPresent(key []byte) (bool, error) {
	if se.store.readOnly.Load() {
		return false, ErrReadOnly
	}
	if err := se.store.readable(); err != nil {
		return false, err
	}
	c := se.clock
	arrive := c.Now()
	c.Advance(device.CostHash64)
	h := se.store.hashFn(key)
	c.Advance(int64(float64(wlog.EntrySize(len(key), 0)) * device.CostDRAMSeqPerByte))

	sh := se.store.shardFor(h)
	var existed bool
	err := se.critical(sh, func() error {
		var err error
		if _, _, existed, err = sh.resolve(c, sh.view.Load(), h, key); err != nil || !existed {
			return err
		}
		return se.appendLocked(sh, h, key, nil, wlog.FlagTombstone)
	})
	if err != nil {
		return false, err
	}
	if existed {
		se.store.stats.Deletes.Add(1)
		se.store.lat.put.Record(c.Now() - arrive)
	}
	return existed, nil
}

// IncrBy implements kvstore.Incrementer: an atomic read-modify-write of a
// decimal integer value under the shard lock. A missing key counts from 0
// (Redis semantics); a non-integer value or a 64-bit overflow returns
// ErrNotInteger without appending anything.
func (se *Session) IncrBy(key []byte, delta int64) (int64, error) {
	if se.store.readOnly.Load() {
		return 0, ErrReadOnly
	}
	if err := se.store.readable(); err != nil {
		return 0, err
	}
	c := se.clock
	arrive := c.Now()
	c.Advance(device.CostHash64)
	h := se.store.hashFn(key)

	sh := se.store.shardFor(h)
	var next int64
	err := se.critical(sh, func() error {
		e, _, live, err := sh.resolve(c, sh.view.Load(), h, key)
		if err != nil {
			return err
		}
		var old int64
		if live {
			if old, err = strconv.ParseInt(string(e.Value), 10, 64); err != nil {
				return ErrNotInteger
			}
		}
		if (delta > 0 && old > math.MaxInt64-delta) || (delta < 0 && old < math.MinInt64-delta) {
			return ErrNotInteger
		}
		next = old + delta
		value := strconv.AppendInt(nil, next, 10)
		c.Advance(int64(float64(wlog.EntrySize(len(key), len(value))) * device.CostDRAMSeqPerByte))
		return se.appendLocked(sh, h, key, value, 0)
	})
	if err != nil {
		return 0, err
	}
	se.store.stats.Puts.Add(1)
	se.store.lat.put.Record(c.Now() - arrive)
	return next, nil
}

// Flush implements kvstore.Session: seals the session's log batch, making
// its acknowledged writes durable.
func (se *Session) Flush() error {
	if se.store.crashed.Load() {
		return ErrCrashed
	}
	// A closed store still accepts Flush: a draining server must be able to
	// seal a session's acknowledged batch even if the store was marked closed
	// while the connection was unwinding. Sealing only persists to the heap
	// arena, which outlives Close.
	if se.store.spaceFlushes {
		se.spaceFlush()
	}
	if err := se.ap.Flush(se.clock); err != nil {
		return err
	}
	// The seal's write-back or the barrier after it may have failed (or an
	// earlier write-back the barrier covers): what this Flush was asked
	// to make durable then is not, and saying otherwise would let the caller
	// acknowledge it.
	if err := se.store.mediumErr(); err != nil {
		return err
	}
	// Barrier: drain the maintenance jobs of every shard this session has
	// dirtied, so the frozen MemTables holding its acknowledged writes are
	// persisted (or spilled with their log entries synced) before Flush
	// returns. Other sessions' shards are not waited on.
	if se.store.maint != nil && len(se.dirtyIDs) > 0 {
		if err := se.store.maint.drain(se.dirtyIDs); err != nil {
			return err
		}
		for _, id := range se.dirtyIDs {
			se.isDirty[id] = false
		}
		se.dirtyIDs = se.dirtyIDs[:0]
	}
	return nil
}

// spaceFlush holds the session to one Flush per flushSpacing on average: each
// Flush books the slot flushSpacing after the previous one and waits for it,
// and a session that ran late keeps at most flushBurst slots of credit.
func (se *Session) spaceFlush() {
	now := time.Now()
	se.nextFlush = se.nextFlush.Add(flushSpacing)
	if floor := now.Add(-flushBurst * flushSpacing); se.nextFlush.Before(floor) {
		se.nextFlush = floor
	}
	if wait := se.nextFlush.Sub(now); wait > 0 {
		sleepFor(wait)
	}
}

// Release detaches the session's appender and reader slot so a retired
// worker holds back neither the recovery watermark nor epoch reclamation.
func (se *Session) Release() error {
	se.store.em.unregister(se.slot)
	return se.ap.Release(se.clock)
}
