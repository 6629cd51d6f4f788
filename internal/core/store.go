package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"chameleondb/internal/device"
	"chameleondb/internal/histogram"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// Store is a ChameleonDB instance. Create one with Open; drive it through
// per-worker Sessions.
type Store struct {
	cfg   Config
	dev   *device.Device
	arena *pmem.Arena
	log   *wlog.Log

	// spaceFlushes is set on the file backend: sessions keep flushSpacing
	// between their durable flushes (see filestore.go).
	spaceFlushes bool

	shards     []*shard
	shardShift uint

	// hashFn computes the 64-bit index hash for a key. It defaults to
	// xhash.Sum64 and is overridable only by in-package tests that need to
	// engineer full hash collisions (infeasible against the real mixer) to
	// exercise the collision fallback on the read and scan paths. Must be set
	// before any session runs. Log entries do not store the hash: recovery
	// replay, log GC and Verify hash each entry's key with this function, so
	// they stay self-consistent under any function.
	hashFn func([]byte) uint64

	// em defers arena reclamation of compacted-away tables until no
	// lock-free reader can still be probing them.
	em *epochManager

	// gpmActive is set by the tail-latency monitor while Get-Protect Mode
	// suspends flushes and compactions. The sample window is lock-free so
	// the monitor never puts a mutex on the get path.
	gpmActive atomic.Bool
	gpmWindow *histogram.AtomicWindowed
	gpmTick   atomic.Int64

	// writeIntensive is the runtime Write-Intensive Mode switch. It lives
	// outside cfg because SetWriteIntensive may race with sessions reading
	// the mode in memTableFull; cfg stays immutable after Open.
	writeIntensive atomic.Bool

	stats Stats
	// media counts media bytes written per purpose. The log counts its own
	// persists, so the mediaLog entry stays zero and mediaGC holds the part
	// of the log's count that was relocation (see mediaBytes).
	media [numMediaPurposes]atomic.Int64
	lat   latencies
	reg   *obs.Registry
	trace *obs.Trace

	// maint is the background maintenance pool (nil when
	// Config.MaintenanceWorkers == 0: jobs then run inline on the writer's
	// clock, as the virtual-time figure experiments need).
	maint *maintPool

	crashed atomic.Bool

	// crashGen counts crashes. Snapshots record it at creation and refuse to
	// scan across a crash/recovery boundary: recovery rebuilds the arena, so
	// a pre-crash snapshot's table references are dead even though the store
	// is readable again.
	crashGen atomic.Int64

	// closed is set (permanently) by Close. Session operations check it the
	// way they check crashed; NewSession during or after Close is safe — the
	// store tears nothing down, so a late session simply observes ErrClosed
	// on its first operation.
	closed atomic.Bool

	// replayPos is the current log-scan position while a recovery replay is
	// running, or MaxInt64 otherwise. Watermarks persisted during replay are
	// clamped to it: entries past the replay cursor are not yet in any
	// table, so a second crash must scan them again.
	replayPos atomic.Int64

	// Replication state (see internal/repl). readOnly gates client writes
	// while the store serves as a replica: Put/Delete/PutBatch/IncrBy return
	// ErrReadOnly, while the replication apply path (Session.ApplyReplicated)
	// bypasses the gate. replID is the replication lineage ID — a random
	// string minted per primary lifetime; two stores share a history iff
	// their IDs match, which is what makes incremental resume safe across
	// unrelated or diverged nodes whose bare epoch counters collide. replEpoch
	// is the replication epoch (bumped on failover promotion); replApplied a
	// replica's durably-applied primary-LSN watermark. All three are
	// persisted in the host-state record on file-backed stores so a restarted
	// replica resumes catch-up where its durable image actually is.
	readOnly    atomic.Bool
	replID      atomic.Pointer[string]
	replEpoch   atomic.Int64
	replApplied atomic.Int64

	// Recovery instrumentation (Table 4 restart times).
	lastRecoverReadyNs int64
	lastRecoverFullNs  int64
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a ChameleonDB on a fresh simulated pmem device.
func Open(cfg Config) (*Store, error) {
	dev := device.New(device.OptanePmem)
	return OpenOn(cfg, dev)
}

// OpenOn creates a ChameleonDB on an existing device (so the harness can
// share one device model across phases).
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return openOnArena(cfg, dev, pmem.NewArena(dev, cfg.ArenaBytes))
}

// openOnArena boots a fresh store on an already-built arena: every shard
// allocates manifest slots and persists an initial empty manifest. The arena
// may be simulated or file-backed (OpenFile calls here for fresh
// directories); cfg must already be validated.
func openOnArena(cfg Config, dev *device.Device, arena *pmem.Arena) (*Store, error) {
	log, err := wlog.New(arena, cfg.LogBytes)
	if err != nil {
		return nil, err
	}
	s := newStoreShell(cfg, dev, arena, log)
	s.shards = make([]*shard, cfg.Shards)
	boot := simclock.New(0)
	for i := range s.shards {
		sh, err := newShard(s, i, boot)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		s.shards[i] = sh
	}
	if cfg.MaintenanceWorkers > 0 {
		s.maint = newMaintPool(s, cfg.MaintenanceWorkers)
	}
	return s, nil
}

// newStoreShell initializes every Store field that does not depend on how the
// shards come into being (fresh boot vs file-backed reattach).
func newStoreShell(cfg Config, dev *device.Device, arena *pmem.Arena, log *wlog.Log) *Store {
	s := &Store{
		cfg:        cfg,
		dev:        dev,
		arena:      arena,
		log:        log,
		shardShift: 64 - uint(log2(cfg.Shards)),
		hashFn:     xhash.Sum64,
		em:         newEpochManager(),
	}
	s.replayPos.Store(int64(1) << 62)
	s.writeIntensive.Store(cfg.WriteIntensive)
	if cfg.TraceEvents > 0 {
		s.trace = obs.NewTrace(cfg.TraceEvents)
	}
	s.buildRegistry()
	if cfg.GetProtect.Enabled {
		s.gpmWindow = histogram.NewAtomicWindowed(cfg.GetProtect.WindowSize)
	}
	return s
}

// log2 returns the exact base-2 logarithm of v. shardFor routes keys by the
// hash's top log2(Shards) bits, which is only a bijection onto the shard
// array for power-of-two counts — a floor-log2 of, say, 48 shards would
// silently fold the top third of the hash space onto the wrong shards.
// Config.validate rejects non-power-of-two counts before any store is built;
// this panic guards against callers bypassing validation.
func log2(v int) int {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("core: shard count %d is not a power of two", v))
	}
	return bits.TrailingZeros64(uint64(v))
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "ChameleonDB" }

// Config returns the store's configuration. WriteIntensive reflects the
// current runtime mode, which SetWriteIntensive may have toggled since Open.
func (s *Store) Config() Config {
	cfg := s.cfg
	cfg.WriteIntensive = s.writeIntensive.Load()
	return cfg
}

// Device returns the simulated pmem device (for harness stats).
func (s *Store) Device() *device.Device { return s.dev }

// Log exposes the storage log (tests and the harness use its counters).
func (s *Store) Log() *wlog.Log { return s.log }

// shardFor routes a key hash to its shard: the top bits select the shard so
// the low bits remain independent for in-table slot selection.
func (s *Store) shardFor(h uint64) *shard {
	if s.shardShift == 64 {
		return s.shards[0]
	}
	return s.shards[h>>s.shardShift]
}

// DeviceStats implements kvstore.Store.
func (s *Store) DeviceStats() device.Stats { return s.dev.Stats() }

// DRAMFootprint implements kvstore.Store: the sum of DRAMBytesByPurpose —
// MemTables, frozen MemTables, ABIs, table accelerators and the GPM monitor.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, b := range s.dramBytes() {
		total += b
	}
	return total
}

// dramBytes sizes the store's DRAM by purpose. It reads each shard's
// published view instead of taking shard locks, so a /stats.json scrape
// under load never stalls writers or queues behind a compaction. The totals
// are a consistent per-shard snapshot; table sizes and accelerator
// footprints are immutable once published.
func (s *Store) dramBytes() (by [numDRAMPurposes]int64) {
	for _, sh := range s.shards {
		// Accelerators only exist without an ABI, where the view lists every
		// persisted table; the first tier is the live MemTable.
		for i, t := range sh.view.Load().tiers {
			switch {
			case t.p != nil:
				by[dramAccelerators] += t.p.dramFootprint()
			case t.src == srcABI:
				by[dramABI] += t.mem.DRAMFootprint()
			case i == 0:
				by[dramMemTable] += t.mem.DRAMFootprint()
			default:
				by[dramFrozen] += t.mem.DRAMFootprint()
			}
		}
	}
	if s.gpmWindow != nil {
		by[dramGPMWindow] = int64(s.cfg.GetProtect.WindowSize) * 8
	}
	return by
}

// Crash implements kvstore.Store: power loss. All sessions must be quiesced.
func (s *Store) Crash() {
	s.crashed.Store(true)
	s.crashGen.Add(1)
	// Quiesce the maintenance pool before touching shared state: workers
	// mid-job stop at their next persist (the arena drops modelled writes
	// after the failure instant), and pause waits for them to park so the
	// wipe below does not race a merge.
	if s.maint != nil {
		s.maint.pause()
	}
	s.trace.Emit(0, obs.EvCrash, -1, 0)
	// Pending epoch retirements die with the power: their arena space is
	// reclaimed by the allocator's conservative post-crash rebuild, not by
	// writes issued after the failure instant.
	s.em.discard()
	s.arena.Crash()
	// Power loss clears the device pipes: recovery does not queue behind
	// pre-crash in-flight transfers, and its clock starts fresh.
	s.dev.ResetTimelines()
	for _, sh := range s.shards {
		sh.tl.Reset()
	}
	// Volatile state dies with the process.
	for _, sh := range s.shards {
		sh.volatileWipe()
	}
	s.gpmActive.Store(false)
}

// Close implements kvstore.Store. It is idempotent and safe to call
// concurrently with NewSession and with running sessions: the store owns no
// external resources to tear down (the simulated arena is heap memory), so
// Close only latches the closed flag — every subsequent session operation
// returns ErrClosed, and a session created while Close runs observes the same
// on first use. Network front ends (internal/server) lean on this: the
// listener drains connections and then closes the store without coordinating
// against stragglers that still hold a Session.
//
// Close does not flush: durability of acknowledged writes is each session
// owner's contract (Session.Flush), and the serving layer's group commit has
// already flushed everything it acknowledged.
func (s *Store) Close() error {
	first := s.closed.CompareAndSwap(false, true)
	// Stop the maintenance workers (idempotent). Queued jobs are abandoned:
	// durability of acknowledged writes is the session owner's contract, and
	// a session that called Flush has already drained its shards.
	if s.maint != nil {
		s.maint.stop()
	}
	if !first {
		return nil
	}
	// A store with a host-metadata record (file-backed) writes a final one —
	// the only one that carries the log's exact tail, so the next open
	// appends where this one stopped instead of at the next segment — and
	// releases the medium, which syncs the manifest and the directory entries
	// on the way out. After a simulated power failure or a backend I/O error
	// the durable state must stay exactly as the failure left it, so only the
	// record write is skipped — Close still releases the descriptors.
	if !s.crashed.Load() && !s.dev.PowerFailed() && s.arena.MediumErr() == nil {
		s.log.CloseMeta()
	}
	return s.arena.Medium().Close()
}

// readable gates session operations on the store's lifecycle state.
func (s *Store) readable() error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	if s.closed.Load() {
		return ErrClosed
	}
	return s.mediumErr()
}

// mediumErr reports a persist that failed to reach the backing store: some
// write may not be durable, so the store fails stop rather than acknowledging
// it or anything after it.
func (s *Store) mediumErr() error {
	if err := s.arena.MediumErr(); err != nil {
		return fmt.Errorf("core: persistence backend failed: %w", err)
	}
	return nil
}

// SetReadOnly flips the replica write gate: while set, client write paths
// (Put, Delete, PutBatch, DeleteIfPresent, IncrBy) return ErrReadOnly and the
// serving layer answers -READONLY; the replication apply path is exempt.
// Promotion clears it. Safe to call while sessions are running.
func (s *Store) SetReadOnly(on bool) { s.readOnly.Store(on) }

// ReplState returns the store's replication identity: the lineage ID and
// epoch it last served under and (for replicas) the durably-applied
// primary-LSN watermark. The ID is "" on stores that never replicated.
func (s *Store) ReplState() (id string, epoch, applied int64) {
	if p := s.replID.Load(); p != nil {
		id = *p
	}
	return id, s.replEpoch.Load(), s.replApplied.Load()
}

// SetReplState records the replication identity and, on file-backed stores,
// persists it in the host-state record. A replica calls it only after locally
// flushing everything at or below applied, so the durable watermark never
// runs ahead of the durable data it stands for.
func (s *Store) SetReplState(id string, epoch, applied int64) {
	s.replID.Store(&id)
	s.replEpoch.Store(epoch)
	s.replApplied.Store(applied)
	if !s.crashed.Load() && !s.closed.Load() {
		s.log.SyncMeta()
	}
}

// SetWriteIntensive toggles Write-Intensive Mode at runtime (Section 2.3
// describes it as a user option). Safe to call while sessions are running.
func (s *Store) SetWriteIntensive(on bool) {
	s.writeIntensive.Store(on)
}

// GPMActive reports whether Get-Protect Mode is currently engaged.
func (s *Store) GPMActive() bool { return s.gpmActive.Load() }

// recordGetLatency feeds the dynamic Get-Protect monitor (Section 2.4) and
// flips the mode when the windowed tail crosses the thresholds. now is the
// worker's virtual timestamp (for trace events); ns the get's latency.
// Lock-free: sampled gets land in an atomic window, and only every 64th
// sample pays for a percentile scan.
func (s *Store) recordGetLatency(now, ns int64) {
	gp := s.cfg.GetProtect
	if !gp.Enabled {
		return
	}
	n := s.gpmTick.Add(1)
	if n%int64(gp.SampleEvery) != 0 {
		return
	}
	s.gpmWindow.Record(ns)
	if n%(int64(gp.SampleEvery)*64) != 0 {
		return
	}
	p99 := s.gpmWindow.Percentile(99)
	if p99 == 0 {
		return
	}
	if p99 > gp.EnterThresholdNs {
		if s.gpmActive.CompareAndSwap(false, true) {
			s.stats.GPMEntries.Add(1)
			s.trace.Emit(now, obs.EvGPMEnter, -1, p99)
		}
	} else if p99 < gp.ExitThresholdNs {
		if s.gpmActive.CompareAndSwap(true, false) {
			s.stats.GPMExits.Add(1)
			s.trace.Emit(now, obs.EvGPMExit, -1, p99)
			// Dumped ABIs are merged back lazily: mark every shard so its
			// next put triggers the postponed last-level compaction if it
			// actually holds a dump (checked under the shard lock).
			for _, sh := range s.shards {
				sh.pendingMerge.Store(true)
			}
		}
	}
}
