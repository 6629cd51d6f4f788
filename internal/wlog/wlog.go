// Package wlog implements the storage log every store in the paper shares:
// KV items are appended in arrival order, buffered in DRAM and written to the
// Optane Pmem in batches (4 KB by default, Section 2.5), so the log itself
// never suffers write amplification. The index structures under test differ;
// the log does not.
//
// The log's address space is logical: an LSN is a virtual offset that grows
// forever, mapped to fixed-size physical segments allocated from the arena
// on demand. Whole segments can be freed back to the arena once garbage
// collection (see core.CompactLog) has relocated their live entries — an
// extension beyond the paper, which leaves log-space reclamation out of
// scope.
//
// Entry layout (8-byte aligned):
//
//	[8 B meta: keyLen(16) | valLen(32) | flags(16)][8 B sum][key][value]
//
// An entry is its key and value: the index hash is not stored, since the key
// determines it and every scanner that indexes entries hashes the key with its
// own store's function. sum is a seeded hash chained over meta, key, and value,
// never zero, so a zero sum word is what "no entry here" looks like — an
// all-zero meta word is a real entry (an empty key with an empty value). The
// device commits 256 B lines, so a batch persist interrupted by power failure
// can leave a durable prefix of its lines: entries beyond the cut have their
// payload (or header) missing, and the checksum is what lets recovery detect
// the torn tail instead of replaying corrupted values.
//
// An appender writes into a private reservation: a whole number of 256 B
// lines, line-aligned, at most one 4 KB chunk (whole chunks for an entry
// larger than one), never spanning segments. Until an appender has flushed,
// and for everything it appends beyond its first reservation after a Flush,
// the reservation is a full chunk — the paper's batch. The first reservation
// after a Flush is sized to the largest of the appender's last four
// flush-to-flush volumes, so a caller that flushes per acknowledgement spends
// the lines it writes instead of a chunk per ack. Flush and a full
// reservation seal it: write it back, then detach, so the unused lines are
// never written.
//
// Durability is paid where it is promised. A seal inside AppendEntry (the
// chunk is full, or the next entry does not fit) only writes the chunk back
// (Arena.PersistLater): on the file backend a pwrite, no fdatasync, since no
// acknowledgement waits on it. Flush seals and then issues one barrier if the
// appender wrote anything back since its last one; SyncAll and SealAll write
// back every appender and issue one barrier between them. SyncAll and
// SealAll, and Flush while a shipper listens, also move the ship frontier
// (DurableLSN): replication ships only what a barrier has made durable, never
// a written-back chunk a power cut could still take.
//
// The scanner believes a position only if the entry there checks out. A zero
// sum word (the unused rest of a reservation), a size reaching past the
// segment, or a failed checksum (a torn persist) sends it to the next line,
// where the next reservation may start. It charges one sequential read per
// 4 KB block it enters (the rest of the block from where it entered) and one
// chunk for an entry larger than a chunk — on a log of full chunks exactly
// the reads of a scanner that skips chunk to chunk.
package wlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// FlagTombstone marks a deletion entry.
const FlagTombstone = 1

// DefaultChunkSize is the DRAM batch size from the paper (Section 2.5).
const DefaultChunkSize = 4096

// DefaultSegmentSize is the physical allocation unit: segments are acquired
// from the arena on demand and freed whole by garbage collection.
const DefaultSegmentSize = 1 << 20

// lineSize is the unit reservations are made of and aligned to: the 256 B
// access granularity of the Optane media, which is also the unit a torn
// persist is cut at.
const lineSize = 256

const headerSize = 16

func roundUp(v, unit int64) int64 { return (v + unit - 1) / unit * unit }

// ErrLogFull is returned when the log's live segments exceed its capacity.
// Reclaim space with garbage collection (core.CompactLog) or size the region
// for the workload.
var ErrLogFull = errors.New("wlog: log region full")

// ErrCorrupt is returned when an entry's stored checksum does not match its
// contents or its declared size is impossible — the durable signature of a
// torn batch persist.
var ErrCorrupt = errors.New("wlog: entry corrupt (torn write)")

// entrySum computes the per-entry checksum: a seeded hash chained over the
// meta word and both byte fields, forced non-zero so an all-zero region can
// never pass as a valid entry, and a zero sum word always means "no entry".
func entrySum(meta uint64, key, value []byte) uint64 {
	s := xhash.Seeded(meta, key)
	s = xhash.Seeded(s, value)
	if s == 0 {
		s = 1
	}
	return s
}

// ErrReclaimed is returned when reading an LSN inside a segment that garbage
// collection already freed.
var ErrReclaimed = errors.New("wlog: entry's segment was reclaimed")

// ErrClosed is returned by an append that needs a new reservation after
// CloseMeta recorded the log's final tail.
var ErrClosed = errors.New("wlog: log is closed")

// Log is a shared append-only value log over arena-backed segments.
//
// The metadata is split for the lock-free read path: writers (reserveChunk,
// FreeBefore) serialize on mu, but everything a reader needs — the tail, the
// head, the segment map — is published atomically, so Read/phys
// never acquire a lock. The atomics are written only with mu held; a reader
// that observes an advanced tail is therefore guaranteed to observe the
// segment mappings published before it.
type Log struct {
	arena     *pmem.Arena
	capacity  int64 // max live bytes across segments
	chunkSize int64
	segSize   int64

	mu       sync.Mutex   // serializes metadata writers
	next     atomic.Int64 // next unreserved virtual offset (written under mu)
	head     atomic.Int64 // first live virtual offset (written under mu)
	segments sync.Map     // segment index (int64) -> arena offset (int64), written under mu
	segCount atomic.Int64 // live segment count

	apMu      sync.Mutex
	appenders []*Appender

	// metaHook, when set, runs under mu after every segment-map change (a
	// reservation that maps a new segment, FreeBefore), receiving the fresh
	// snapshot. The file-backed store uses it to persist its host metadata —
	// the segment directory and allocator marks — before any data in a fresh
	// segment can be written, let alone acknowledged. Reservations inside an
	// already mapped segment do not run it, so the tail it receives is not
	// the tail but its bound: the end of the highest mapped segment, which
	// every reservation made before the next call stays below. The hook must
	// not call back into Log methods that take the metadata mutex.
	metaHook func(head, next int64, segs map[int64]int64)
	closed   bool // CloseMeta ran: no further reservations (under mu)

	// holds maps a holder id (one per connected replica) to the lowest LSN
	// that holder still needs. FreeBefore never reclaims a segment at or
	// above the minimum hold, whatever its caller computed — the hard
	// backstop under log GC racing a lagging log shipper. Guarded by mu so a
	// hold update, the floor computation, and the free decision serialize.
	holds map[string]int64

	// durable is the ship frontier: every entry below it was written back
	// before a barrier that has completed. durableHook, when set, runs after
	// the frontier advances; the replication shipper uses it to wake tailing
	// senders, and its presence is what makes a Flush move the frontier. It
	// can run with an appender's mutex held, so it must not block and must
	// not call back into appender methods.
	durable     atomic.Int64
	durableHook atomic.Pointer[func()]

	entries atomic.Int64
	bytes   atomic.Int64
	media   atomic.Int64 // media bytes the device charged for log persists
}

// SegmentSizeFor returns the physical segment size New picks for a log of the
// given capacity: the default 1 MiB, scaled down in whole chunks for small
// test configurations. Exported so backends can size their host-metadata
// records before the log exists.
func SegmentSizeFor(capacity int64) int64 {
	segSize := int64(DefaultSegmentSize)
	if capacity < 4*segSize {
		segSize = (capacity / 4 / DefaultChunkSize) * DefaultChunkSize
		if segSize < DefaultChunkSize {
			segSize = DefaultChunkSize
		}
	}
	return segSize
}

// New creates a log with the given live-byte capacity inside arena.
func New(arena *pmem.Arena, capacity int64) (*Log, error) {
	if capacity < DefaultSegmentSize {
		// Small test configurations get a single proportionate segment.
		if capacity < 4*DefaultChunkSize {
			return nil, fmt.Errorf("wlog: capacity %d too small", capacity)
		}
	}
	segSize := SegmentSizeFor(capacity)
	l := &Log{
		arena:     arena,
		capacity:  capacity,
		chunkSize: DefaultChunkSize,
		segSize:   segSize,
	}
	l.next.Store(segSize) // LSN 0 is reserved as "nil" across the stores
	l.head.Store(segSize)
	l.durable.Store(segSize)
	return l, nil
}

// SetMetaHook installs fn to run (under the metadata mutex) after every
// change to the segment map or GC head. Must be set before any append.
func (l *Log) SetMetaHook(fn func(head, next int64, segs map[int64]int64)) {
	l.mu.Lock()
	l.metaHook = fn
	l.mu.Unlock()
}

// runMetaHookLocked hands the hook the segment directory with the tail bound:
// a process that dies before the next call restarts from a record whose tail
// no acknowledged entry can lie above and no new append can land below.
// Caller holds mu.
func (l *Log) runMetaHookLocked() {
	if l.metaHook == nil {
		return
	}
	head, next, segs := l.snapshotLocked()
	l.metaHook(head, roundUp(next, l.segSize), segs)
}

// SyncMeta runs the meta hook on the current segment directory. Callers with
// other state in the same durable record (the store's replication identity)
// refresh it this way: the snapshot is taken and handed over under the
// metadata mutex, so records reach the hook in the order of the states they
// describe and a stale directory can never overwrite a newer one.
func (l *Log) SyncMeta() {
	l.mu.Lock()
	l.runMetaHookLocked()
	l.mu.Unlock()
}

// CloseMeta runs the meta hook with the exact tail and refuses every later
// reservation, so a clean shutdown resumes appending where it stopped instead
// of at the next segment. Appends into chunks reserved earlier still succeed:
// they lie below the recorded tail.
func (l *Log) CloseMeta() {
	l.mu.Lock()
	l.closed = true
	if l.metaHook != nil {
		l.metaHook(l.snapshotLocked())
	}
	l.mu.Unlock()
}

// snapshotLocked builds the restart-critical state: the GC head, the tail,
// and the segment-index -> arena-offset map. Caller holds mu.
func (l *Log) snapshotLocked() (head, next int64, segs map[int64]int64) {
	segs = make(map[int64]int64)
	l.segments.Range(func(k, v any) bool {
		segs[k.(int64)] = v.(int64)
		return true
	})
	return l.head.Load(), l.next.Load(), segs
}

// SegmentSnapshot returns the log's restart-critical state: the GC head, the
// tail, and the segment-index -> arena-offset map. Callers persist it through
// the meta hook; RestoreSegments is its inverse.
func (l *Log) SegmentSnapshot() (head, next int64, segs map[int64]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

// RestoreSegments reinstates a snapshot taken by SegmentSnapshot on a fresh
// log — reattaching to existing durable state after a process restart. Must
// run before any appender is created.
func (l *Log) RestoreSegments(head, next int64, segs map[int64]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for seg, off := range segs {
		l.segments.Store(seg, off)
	}
	l.segCount.Store(int64(len(segs)))
	if head > l.head.Load() {
		l.head.Store(head)
	}
	if next > l.next.Load() {
		l.next.Store(next)
	}
	// Everything a restart finds below the tail is as durable as it will get:
	// a chunk the power cut took reads as unused lines, and its LSNs are
	// never handed out again.
	l.advanceDurable(l.next.Load())
}

// HoldGC registers (or moves) a named reclamation floor: FreeBefore will not
// release the segment containing lsn or anything above it until the hold is
// released or moved up. Replication registers one hold per replica, pinned at
// the replica's acked LSN, so log GC can never reclaim bytes a lagging
// replica has not applied yet. A hold at 0 pins the whole log.
func (l *Log) HoldGC(id string, lsn int64) {
	l.mu.Lock()
	if l.holds == nil {
		l.holds = make(map[string]int64)
	}
	l.holds[id] = lsn
	l.mu.Unlock()
}

// ReleaseGCHold removes a named hold installed by HoldGC.
func (l *Log) ReleaseGCHold(id string) {
	l.mu.Lock()
	delete(l.holds, id)
	l.mu.Unlock()
}

// holdFloorLocked returns the minimum registered hold and true, or false when
// no holds exist. Caller holds mu.
func (l *Log) holdFloorLocked() (int64, bool) {
	ok := false
	var min int64
	for _, lsn := range l.holds {
		if !ok || lsn < min {
			min, ok = lsn, true
		}
	}
	return min, ok
}

// GCFloor returns the highest LSN log GC may currently free up to: the
// MinNextLSN durability watermark further clamped by every registered GC
// hold. core.CompactLog caps its reclamation target here, and FreeBefore
// re-checks the hold component under its own lock, so a hold installed
// between the two can only make reclamation more conservative.
func (l *Log) GCFloor() int64 {
	floor := l.MinNextLSN()
	l.mu.Lock()
	if h, ok := l.holdFloorLocked(); ok && h < floor {
		floor = h
	}
	l.mu.Unlock()
	return floor
}

// SetDurableHook installs fn to run after a barrier advances DurableLSN; while
// it is installed every Flush moves the frontier too. fn must not block: it
// can run on a flushing worker with its appender locked.
func (l *Log) SetDurableHook(fn func()) {
	if fn == nil {
		l.durableHook.Store(nil)
		return
	}
	l.durableHook.Store(&fn)
}

// DurableLSN returns the ship frontier: every entry below it is durable on
// the medium — written back before a barrier that has completed — and, being
// at most a MinNextLSN read earlier, no append can land below it. It never
// exceeds MinNextLSN, so ScanRange up to it is race-free. SyncAll and SealAll
// move it; an appender's Flush moves it only while a durable hook is
// installed, so an acknowledgement with no replica listening takes no
// log-wide lock.
func (l *Log) DurableLSN() int64 { return l.durable.Load() }

// writtenBackLSN is the frontier of the write-backs: the minimum over the
// tail and every appender's write-back floor. It reads the tail first and the
// floors second, for the reason MinNextLSN does (see reserveChunk).
func (l *Log) writtenBackLSN() int64 {
	min := l.Tail()
	l.apMu.Lock()
	for _, a := range l.appenders {
		if n := a.wbLSN.Load(); n != 0 && n < min {
			min = n
		}
	}
	l.apMu.Unlock()
	return min
}

// barrier makes every write-back issued so far durable. With frontier set, or
// a durable hook installed, it also moves the ship frontier to the write-back
// frontier read before it. A medium error or a simulated power failure leaves
// the frontier where it was: what the barrier was to cover may not be
// durable.
func (l *Log) barrier(frontier bool) {
	frontier = frontier || l.durableHook.Load() != nil
	var w int64
	if frontier {
		w = l.writtenBackLSN()
	}
	l.arena.Barrier()
	if !frontier || l.arena.MediumErr() != nil || l.arena.Device().PowerFailed() {
		return
	}
	l.advanceDurable(w)
}

func (l *Log) advanceDurable(w int64) {
	for {
		d := l.durable.Load()
		if w <= d {
			return
		}
		if l.durable.CompareAndSwap(d, w) {
			break
		}
	}
	if hook := l.durableHook.Load(); hook != nil {
		(*hook)()
	}
}

// Base returns the first potentially-live LSN (the GC head). Lock-free.
func (l *Log) Base() int64 { return l.head.Load() }

// Tail returns the high-water LSN: all entries live below it. Lock-free.
func (l *Log) Tail() int64 { return l.next.Load() }

// SegmentSize returns the physical allocation unit.
func (l *Log) SegmentSize() int64 { return l.segSize }

// LiveBytes returns the bytes currently held in arena segments.
func (l *Log) LiveBytes() int64 { return l.segCount.Load() * l.segSize }

// Entries returns the number of appended entries.
func (l *Log) Entries() int64 { return l.entries.Load() }

// MediaBytes returns the media bytes the device has charged for this log's
// persists, every appender's included: whole 256 B lines, so at least
// BytesAppended less what is still buffered.
func (l *Log) MediaBytes() int64 { return l.media.Load() }

// BytesAppended returns the logical bytes appended.
func (l *Log) BytesAppended() int64 { return l.bytes.Load() }

// EntrySize returns the padded on-log size of an entry.
func EntrySize(keyLen, valLen int) int64 {
	sz := int64(headerSize + keyLen + valLen)
	return (sz + 7) &^ 7
}

// phys maps a virtual offset to its arena offset, or reports the segment
// reclaimed/unallocated. Lock-free: the segment map is read without the
// metadata mutex.
func (l *Log) phys(v int64) (int64, bool) {
	off, ok := l.segments.Load(v / l.segSize)
	if !ok {
		return 0, false
	}
	return off.(int64) + v%l.segSize, true
}

// reserveChunk hands out the next line-aligned virtual region of n bytes (a
// whole number of lines), allocating segments as needed. Reservations never
// span segments unless they are larger than one.
//
// The reserving appender's nextLSN floor is published (under l.mu, before the
// tail advances) rather than by the caller afterwards: MinNextLSN reads the
// tail first and the appender floors second, so any reader that observes the
// advanced tail also observes this reservation's floor. Publishing after the
// tail would open a window where the watermark covers a reserved-but-empty
// chunk — a concurrent shipper or checkpoint would skip it and the entries
// later appended into it would sit below a cursor that never revisits them.
func (l *Log) reserveChunk(a *Appender, n int64) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	next := l.next.Load()
	// Pad to the next segment if the chunk would straddle a boundary.
	if next%l.segSize+n > l.segSize {
		next = (next/l.segSize + 1) * l.segSize
	}
	start := next
	end := start + n
	mapped := false
	for seg := start / l.segSize; seg <= (end-1)/l.segSize; seg++ {
		if _, ok := l.segments.Load(seg); ok {
			continue
		}
		if (l.segCount.Load()+1)*l.segSize > l.capacity {
			return 0, fmt.Errorf("%w: %d live segments of %d bytes", ErrLogFull, l.segCount.Load(), l.segSize)
		}
		off, err := l.arena.Alloc(l.segSize)
		if err != nil {
			return 0, fmt.Errorf("wlog: segment allocation: %w", err)
		}
		// Publish the mapping before the tail below: a reader that sees the
		// advanced tail must be able to resolve every LSN under it.
		l.segments.Store(seg, off)
		l.segCount.Add(1)
		mapped = true
	}
	a.nextLSN.Store(start)
	a.wbLSN.Store(start)
	l.next.Store(end)
	if mapped {
		// Persist the updated segment directory before the reservation is
		// used: no entry in a fresh segment can be written — and so none can
		// be acknowledged — until the mapping that recovers it is durable.
		// Later reservations in the segment are covered by the same record.
		l.runMetaHookLocked()
	}
	return start, nil
}

// FreeBefore releases every whole segment strictly below LSN v back to the
// arena and advances the GC head. The caller (core.CompactLog) must have
// relocated all live entries below v and checkpointed the stores' recovery
// watermarks above it first.
func (l *Log) FreeBefore(v int64) (freedBytes int64) {
	// After a simulated power failure the checkpoint that raised the
	// watermark above v never became durable: the durable manifests may still
	// reference entries below v, so freeing (and durably zeroing) their
	// segments would destroy data recovery needs. The dying process frees
	// nothing.
	if l.arena.Device().PowerFailed() {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A registered GC hold is a hard floor: even if the caller computed its
	// target before the hold appeared, the segments the holder needs survive.
	if h, ok := l.holdFloorLocked(); ok && h < v {
		v = h
	}
	lastSeg := v / l.segSize // segments strictly below this index die
	next := l.next.Load()
	l.segments.Range(func(k, val any) bool {
		seg, off := k.(int64), val.(int64)
		if seg < lastSeg && (seg+1)*l.segSize <= next {
			l.segments.Delete(seg)
			l.segCount.Add(-1)
			l.arena.Free(off, l.segSize)
			freedBytes += l.segSize
		}
		return true
	})
	if h := lastSeg * l.segSize; h > l.head.Load() {
		l.head.Store(h)
	}
	if freedBytes > 0 {
		// Drop the freed segments from the durable directory so a restart
		// does not resurrect mappings onto arena space the allocator may
		// hand out again.
		l.runMetaHookLocked()
	}
	return freedBytes
}

// Appender is a per-worker handle with a private batch chunk, so appends are
// contention-free until a chunk seals. An Appender belongs to one worker;
// the only cross-worker entry point is Log.SyncAll, which the internal mutex
// serializes against the owner.
type Appender struct {
	log *Log

	mu        sync.Mutex
	chunkOff  int64 // virtual offset of current chunk, 0 if none
	chunkPhys int64 // arena offset of current chunk
	chunkLen  int64
	used      int64 // bytes written into current chunk
	persisted int64 // prefix of used already persisted
	media     int64 // this appender's share of Log.MediaBytes

	// wrote counts the bytes appended since the last Flush; afterFlush is the
	// size of the first reservation after one: the lines of the largest of the
	// appender's last few flush-to-flush volumes (windows, a ring), a full
	// chunk until it has flushed. The largest rather than the last, because a
	// window that outgrows its reservation pays a second persist and a whole
	// chunk, while an oversized reservation only leaves lines unused.
	wrote      int64
	afterFlush int64
	windows    [4]int64
	windowIdx  int

	// nextLSN is the smallest LSN any future AppendEntry by this appender can
	// return (0 = no private chunk, so bounded by the log tail). It is read
	// concurrently by MinNextLSN for recovery watermarks. wbLSN is the
	// smallest LSN of an entry this appender holds that is not yet written
	// back (0 = none, so bounded by the tail); the barriers read it for the
	// ship frontier.
	nextLSN atomic.Int64
	wbLSN   atomic.Int64

	// pending is set by a write-back and cleared by this appender's own
	// barrier: Flush issues one only if something it wrote back is not yet
	// covered by one.
	pending bool
}

// NewAppender creates an appender for one worker and registers it for
// recovery-watermark accounting.
func (l *Log) NewAppender() *Appender {
	a := &Appender{log: l, afterFlush: l.chunkSize}
	l.apMu.Lock()
	l.appenders = append(l.appenders, a)
	l.apMu.Unlock()
	return a
}

// Release deregisters the appender (after a final Flush) so a retired worker
// does not hold the recovery watermark back.
func (a *Appender) Release(c *simclock.Clock) error {
	if err := a.Flush(c); err != nil {
		return err
	}
	a.log.apMu.Lock()
	for i, x := range a.log.appenders {
		if x == a {
			a.log.appenders = append(a.log.appenders[:i], a.log.appenders[i+1:]...)
			break
		}
	}
	a.log.apMu.Unlock()
	return nil
}

// MinNextLSN returns a conservative lower bound on the LSN of any entry that
// could still be appended: the minimum over every appender's private-chunk
// position and the shared tail. Stores persist this value as their recovery
// watermark — everything below it that matters is already in persisted
// tables, so recovery scans from here.
func (l *Log) MinNextLSN() int64 {
	min := l.Tail()
	l.apMu.Lock()
	for _, a := range l.appenders {
		if n := a.nextLSN.Load(); n != 0 && n < min {
			min = n
		}
	}
	l.apMu.Unlock()
	return min
}

// Append is AppendEntry with a leading key hash, which it ignores: the log
// does not store the hash. It exists only for benchmark/micro.go, which is
// frozen with the rest of the repo benchmark; delete it, and name
// AppendEntry Append, when that directory next changes.
func (a *Appender) Append(c *simclock.Clock, _ uint64, key, value []byte, flags uint16) (int64, error) {
	return a.AppendEntry(c, key, value, flags)
}

// AppendEntry writes one entry and returns its LSN. The entry is immediately
// visible to readers (it is in the volatile image) but becomes durable only
// at the next barrier after its chunk is written back — Flush, SyncAll or
// SealAll — the same window a real batched log has. A chunk AppendEntry seals
// is written back, not synced.
func (a *Appender) AppendEntry(c *simclock.Clock, key, value []byte, flags uint16) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(key) > 0xffff {
		return 0, fmt.Errorf("wlog: key too long (%d)", len(key))
	}
	if int64(len(value)) > 0xffffffff {
		return 0, fmt.Errorf("wlog: value too long (%d)", len(value))
	}
	sz := EntrySize(len(key), len(value))
	if a.chunkOff == 0 || a.used+sz > a.chunkLen {
		a.seal(c)
		// The first reservation after a Flush covers the recent flush-to-flush
		// volumes; an appender that outgrows it is batching, and gets chunks.
		n := a.log.chunkSize
		if a.wrote == 0 {
			n = a.afterFlush
		}
		if sz > n {
			// An entry larger than a chunk takes whole chunks, as it always
			// has; a smaller one the lines it needs.
			n = roundUp(sz, lineSize)
			if sz > a.log.chunkSize {
				n = roundUp(sz, a.log.chunkSize)
			}
		}
		off, err := a.log.reserveChunk(a, n)
		if err != nil {
			return 0, err
		}
		phys, ok := a.log.phys(off)
		if !ok {
			a.nextLSN.Store(0)
			a.wbLSN.Store(0)
			return 0, fmt.Errorf("wlog: fresh chunk unmapped at %d", off)
		}
		a.chunkOff, a.chunkPhys, a.chunkLen, a.used, a.persisted = off, phys, n, 0, 0
	}
	lsn := a.chunkOff + a.used
	buf := a.log.arena.Bytes(a.chunkPhys+a.used, sz)
	meta := uint64(len(key)) | uint64(len(value))<<16 | uint64(flags)<<48
	binary.LittleEndian.PutUint64(buf[0:8], meta)
	binary.LittleEndian.PutUint64(buf[8:16], entrySum(meta, key, value))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], value)
	a.used += sz
	a.wrote += sz
	a.nextLSN.Store(a.chunkOff + a.used)
	a.log.entries.Add(1)
	a.log.bytes.Add(sz)
	if a.used == a.chunkLen {
		a.seal(c)
	}
	return lsn, nil
}

// AppendSync appends one entry and persists it immediately — no batching.
// Each call is a small write that the device rounds up to its 256 B access
// unit with a read-modify-write: the put path of the Pmem-Hash baseline,
// which "persists KV items with small writes in individual put operations"
// (Section 3.3).
func (a *Appender) AppendSync(c *simclock.Clock, key, value []byte, flags uint16) (int64, error) {
	lsn, err := a.AppendEntry(c, key, value, flags)
	if err != nil {
		return 0, err
	}
	a.mu.Lock()
	// Written back here, or by AppendEntry's seal if the entry filled its chunk.
	a.persistBuffered(c)
	a.pending = false
	a.log.barrier(false)
	a.mu.Unlock()
	return lsn, nil
}

// persistBuffered writes back the part of the current chunk not yet persisted
// and books the media bytes it cost. Caller holds a.mu.
func (a *Appender) persistBuffered(c *simclock.Clock) {
	if a.chunkOff == 0 || a.used == a.persisted {
		return
	}
	n := a.log.arena.PersistLater(c, a.chunkPhys+a.persisted, a.used-a.persisted)
	a.media += n
	a.log.media.Add(n)
	a.persisted = a.used
	a.wbLSN.Store(a.chunkOff + a.used)
	a.pending = true
}

// MediaBytes returns the media bytes charged for this appender's persists.
// Log GC reads it off its relocation appender to tell relocation traffic from
// client appends.
func (a *Appender) MediaBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.media
}

// seal writes back the unpersisted part of the current chunk and detaches
// it. Caller holds a.mu.
func (a *Appender) seal(c *simclock.Clock) {
	a.persistBuffered(c)
	a.chunkOff, a.chunkPhys, a.chunkLen, a.used, a.persisted = 0, 0, 0, 0, 0
	a.nextLSN.Store(0)
	a.wbLSN.Store(0)
}

// endWindow books the bytes appended since the last Flush as one window, for
// the size of the next reservation. Caller holds a.mu.
func (a *Appender) endWindow() {
	if a.wrote > 0 {
		a.windows[a.windowIdx] = min(roundUp(a.wrote, lineSize), a.log.chunkSize)
		a.windowIdx = (a.windowIdx + 1) % len(a.windows)
		a.afterFlush = slices.Max(a.windows[:])
		a.wrote = 0
	}
}

// Flush seals the chunk, abandoning its unused lines, and makes everything
// this appender wrote back durable with one barrier (none if a barrier
// already covers it). Called on store Flush/Close and by durability-sensitive
// tests.
func (a *Appender) Flush(c *simclock.Clock) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.endWindow()
	a.seal(c)
	if a.pending {
		a.pending = false
		a.log.barrier(false)
	}
	return nil
}

// appendersNow snapshots the registered appenders.
func (l *Log) appendersNow() []*Appender {
	l.apMu.Lock()
	defer l.apMu.Unlock()
	return slices.Clone(l.appenders)
}

// WriteBackAll writes back every appender's buffered entries, keeping their
// chunks open. Index checkpoints (ChameleonDB's MemTable flushes, ABI dumps,
// and last-level compactions) call this before building a table; the
// manifest persist that publishes the table is a barrier first, so a durable
// index can never reference a log entry that a crash would erase — the log
// is always at least as durable as the index that points into it.
func (l *Log) WriteBackAll(c *simclock.Clock) {
	for _, a := range l.appendersNow() {
		a.mu.Lock()
		a.persistBuffered(c)
		a.mu.Unlock()
	}
}

// SyncAll is WriteBackAll followed by one barrier: every entry appended
// anywhere before the call is durable when it returns (the store-wide
// durability point of FLUSHALL).
func (l *Log) SyncAll(c *simclock.Clock) {
	l.WriteBackAll(c)
	l.barrier(true)
}

// SealAll writes back and detaches every appender's private batch chunk, then
// issues one barrier, so everything appended before the call is below
// DurableLSN when it returns and all future appends draw fresh LSNs from the
// shared tail. Log GC must call this before relocating entries: a relocated
// copy takes an LSN at the tail, and if a session later appended a newer
// version into a still-open chunk below the tail, recovery's LSN-ordered
// replay would resurrect the relocated old copy over the newer flushed one.
func (l *Log) SealAll(c *simclock.Clock) error {
	for _, a := range l.appendersNow() {
		a.mu.Lock()
		a.endWindow()
		a.seal(c)
		a.mu.Unlock()
	}
	l.barrier(true)
	return nil
}

// Entry is one decoded log record.
type Entry struct {
	LSN   int64
	Key   []byte
	Value []byte
	Flags uint16
}

// Tombstone reports whether the entry is a deletion marker.
func (e Entry) Tombstone() bool { return e.Flags&FlagTombstone != 0 }

func decodeMeta(meta uint64) (keyLen, valLen int, flags uint16) {
	return int(meta & 0xffff), int(meta >> 16 & 0xffffffff), uint16(meta >> 48)
}

// Why a position holds no valid entry, as decode reports it.
var (
	errNoEntry     = errors.New("no entry")
	errHeaderCut   = fmt.Errorf("%w: header crosses segment end", ErrCorrupt)
	errPastSegment = fmt.Errorf("%w: size reaches past segment end", ErrCorrupt)
	errSumMismatch = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

// decode checks and decodes the entry whose header is at position pos (arena
// offset phys) and returns it with its size. A zero sum word is no entry; a
// header crossing the segment end, a size reaching past it (entries never
// span segments) or a failed checksum is a torn one. A non-nil c is charged
// one random device read of the entry's size; nil charges nothing.
func (l *Log) decode(c *simclock.Clock, pos, phys int64) (Entry, int64, error) {
	segRem := l.segSize - pos%l.segSize
	if segRem < headerSize {
		return Entry{}, 0, errHeaderCut
	}
	hdr := l.arena.Bytes(phys, headerSize)
	meta := binary.LittleEndian.Uint64(hdr[0:8])
	sum := binary.LittleEndian.Uint64(hdr[8:16])
	if sum == 0 {
		return Entry{}, 0, errNoEntry
	}
	keyLen, valLen, flags := decodeMeta(meta)
	sz := EntrySize(keyLen, valLen)
	if sz > segRem {
		return Entry{}, 0, errPastSegment
	}
	var buf []byte
	if c != nil {
		buf = l.arena.ReadRandom(c, phys, sz)
	} else {
		buf = l.arena.Bytes(phys, sz)
	}
	key := buf[headerSize : headerSize+keyLen]
	value := buf[headerSize+keyLen : headerSize+keyLen+valLen]
	if entrySum(meta, key, value) != sum {
		return Entry{}, 0, errSumMismatch
	}
	return Entry{LSN: pos, Key: key, Value: value, Flags: flags}, sz, nil
}

// Read decodes the entry at lsn, charging one random device read of the
// entry's size. Reading into a reclaimed segment returns ErrReclaimed; an
// entry whose checksum or declared size is wrong (a torn batch persist)
// returns ErrCorrupt.
func (l *Log) Read(c *simclock.Clock, lsn int64) (Entry, error) {
	if lsn < l.segSize || lsn >= l.Tail() {
		return Entry{}, fmt.Errorf("wlog: LSN %d out of range", lsn)
	}
	phys, ok := l.phys(lsn)
	if !ok {
		return Entry{}, ErrReclaimed
	}
	e, _, err := l.decode(c, lsn, phys)
	if err != nil {
		return Entry{}, fmt.Errorf("wlog: LSN %d: %w", lsn, err)
	}
	return e, nil
}

// Scan iterates entries with LSN >= from in log order, charging sequential
// reads per chunk, and calls fn for each entry. fn returning false stops the
// scan. Reclaimed and unallocated segments are skipped. Scan is how stores
// rebuild volatile indexes after a crash.
func (l *Log) Scan(c *simclock.Clock, from int64, fn func(Entry) bool) error {
	return l.ScanRange(c, from, l.Tail(), fn)
}

// ScanRange is Scan bounded above: it never touches bytes at or past to, so a
// caller that picked to = MinNextLSN can run concurrently with live appenders
// — every byte below that watermark was published (via the appenders' nextLSN
// atomics) before the watermark was read, and no future append can land
// there. The replication shipper exports chunks this way while the store
// serves writes.
//
// A position that holds no valid entry (decode says why) is padding before
// a segment end or the unused or torn end of some reservation; the next
// reservation starts on a line, so the scan resumes at the next line. (The
// lines of a torn entry that did reach the media are value bytes read as a
// header; like any position, they are believed only with a matching
// checksum.)
func (l *Log) ScanRange(c *simclock.Clock, from, to int64, fn func(Entry) bool) error {
	if from < l.segSize {
		from = l.segSize
	}
	end := l.Tail()
	if to < end {
		end = to
	}
	pos := from
	charged := int64(-1) // chunk-sized block whose read was last charged
	for pos < end {
		phys, ok := l.phys(pos)
		if !ok {
			// Freed or never-allocated segment: skip it whole.
			pos = (pos/l.segSize + 1) * l.segSize
			continue
		}
		// Charge a chunk-sized block's read once, on entering it — at its
		// start, at the scan's start, or mid-block behind an entry that
		// straddles two blocks of a line-aligned reservation.
		if blk := pos / l.chunkSize; blk != charged {
			charged = blk
			n := l.chunkSize - pos%l.chunkSize
			if pos+n > end {
				n = end - pos
			}
			l.arena.ReadSeq(c, phys, n)
		}
		e, sz, err := l.decode(nil, pos, phys)
		if err != nil {
			pos = (pos/lineSize + 1) * lineSize
			continue
		}
		if !fn(e) {
			return nil
		}
		pos += sz
		if sz > l.chunkSize {
			// An entry larger than a chunk was reserved whole chunks and is
			// charged one chunk read, at its start, as it always was: the
			// block it ends in counts as read.
			charged = (pos - 1) / l.chunkSize
		}
	}
	return nil
}
