// Package chameleondb is a from-scratch Go implementation of ChameleonDB
// (Zhang et al., EuroSys '21): a key-value store designed for Intel Optane
// DC persistent memory that combines an LSM-style multi-level persistent
// index — giving batched, amplification-free writes and fast restart — with
// an in-DRAM Auxiliary Bypass Index that lets reads skip the levels.
//
// The store runs on a simulated Optane device (package internal/pmem): data
// is stored and recovered for real, while access timing is accounted in
// virtual nanoseconds by a calibrated device model, reproducing the
// performance behaviour the paper reports without Optane hardware. See
// DESIGN.md for the model and EXPERIMENTS.md for the reproduced evaluation.
//
// Basic use:
//
//	db, err := chameleondb.Open(chameleondb.DefaultOptions())
//	...
//	err = db.Put([]byte("key"), []byte("value"))
//	v, ok, err := db.Get([]byte("key"))
//
// DB methods are safe for concurrent use. For throughput-sensitive loops,
// create one Session per goroutine: sessions batch their log writes and
// avoid the internal session pool.
package chameleondb

import (
	"fmt"
	"sync"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
)

// CompactionMode selects how upper-level compactions cascade.
type CompactionMode int

const (
	// DirectCompaction merges all cascading levels in one pass (the paper's
	// Figure 5b, the default).
	DirectCompaction CompactionMode = iota
	// LevelByLevel uses the classic adjacent-level cascade (Figure 5a).
	LevelByLevel
)

// GetProtectOptions configure the dynamic Get-Protect Mode (paper
// Section 2.4): when the windowed P99 get latency exceeds the threshold,
// flushes and compactions are suspended and full Auxiliary Bypass Indexes
// are dumped to persistent memory unmerged, protecting read tail latency
// during put bursts.
type GetProtectOptions struct {
	Enabled          bool
	EnterThresholdNs int64 // engage above this windowed P99 (paper: 2000)
	ExitThresholdNs  int64 // disengage below this (defaults to Enter)
	MaxDumps         int   // unmerged ABI dumps allowed (paper: 1)
}

// Options configure a store. Start from DefaultOptions or PaperOptions.
type Options struct {
	// Shards is the number of index shards (power of two).
	Shards int
	// MemTableSlots is each shard's MemTable capacity in 16-byte slots
	// (power of two).
	MemTableSlots int
	// Levels counts LSM levels including the last; Ratio is the
	// between-level ratio.
	Levels int
	Ratio  int
	// LoadFactorMin/Max bound the randomized per-shard MemTable load-factor
	// thresholds (paper Section 2.5).
	LoadFactorMin float64
	LoadFactorMax float64
	// ABISlots is the capacity each shard's Auxiliary Bypass Index grows to
	// (Table 1: 512 KB); it starts at one MemTable's worth (0 = derive the
	// cap from the level geometry).
	ABISlots int
	// ArenaBytes sizes the simulated persistent memory; LogBytes the value
	// log region inside it.
	ArenaBytes int64
	LogBytes   int64
	// CompactionMode selects Direct (default) or LevelByLevel.
	CompactionMode CompactionMode
	// WriteIntensive enables Write-Intensive Mode (paper Section 2.3):
	// higher put throughput, longer crash recovery.
	WriteIntensive bool
	// GetProtect configures the dynamic Get-Protect Mode.
	GetProtect GetProtectOptions
	// MaintenanceWorkers sizes the background maintenance pool that runs
	// MemTable flushes, ABI spills, and compactions off the put path
	// (DESIGN.md §5.3). 0 runs no pool: the same jobs run inline on the
	// writing goroutine.
	MaintenanceWorkers int
	// HotCacheBytes enables a DRAM hot-key read cache of this capacity in
	// front of the engine (DESIGN.md §9): reads fill it under TinyLFU
	// admission, writes invalidate it, Crash empties it. 0 (the default)
	// disables it.
	HotCacheBytes int64
	// Seed drives load-factor randomization.
	Seed int64
}

// DefaultOptions returns a laptop-scale configuration: the paper's Table 1
// proportions (4 levels, ratio 4, randomized 0.65-0.85 load factors) at 64
// shards with 64-slot MemTables, so a few hundred thousand keys exercise
// the full level hierarchy inside a ~1.5 GB simulated arena.
//
// The geometry is designed to hold about 220 k keys: 64 shards x a 4096-slot
// last level at fill 0.85. More keys are served correctly — each shard's last
// level is then written at the size its entries need instead of the designed
// 64 KiB — but every last-level compaction rewrites all of a shard's entries,
// so index write amplification grows with keys per shard (at 1 M keys about
// 80 of the 185 media bytes per 16 B put). Raise Shards or MemTableSlots for
// larger stores.
func DefaultOptions() Options {
	return Options{
		Shards:        64,
		MemTableSlots: 64,
		Levels:        4,
		Ratio:         4,
		LoadFactorMin: 0.65,
		LoadFactorMax: 0.85,
		ArenaBytes:    1536 << 20,
		LogBytes:      1024 << 20,
		Seed:          1,
	}
}

// PaperOptions returns the paper's Table 1 configuration: 16384 shards,
// 8 KB MemTables, ABIs growing to 512 KB (8 GB of DRAM for ABIs alone at
// design load), a 64 GB arena.
func PaperOptions() Options {
	c := core.DefaultConfig()
	return Options{
		Shards:        c.Shards,
		MemTableSlots: c.MemTableSlots,
		Levels:        c.Levels,
		Ratio:         c.Ratio,
		LoadFactorMin: c.LoadFactorMin,
		LoadFactorMax: c.LoadFactorMax,
		ABISlots:      c.ABISlots,
		ArenaBytes:    c.ArenaBytes,
		LogBytes:      c.LogBytes,
		Seed:          c.Seed,
	}
}

func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = o.Shards
	cfg.MemTableSlots = o.MemTableSlots
	cfg.Levels = o.Levels
	cfg.Ratio = o.Ratio
	cfg.LoadFactorMin = o.LoadFactorMin
	cfg.LoadFactorMax = o.LoadFactorMax
	cfg.ABISlots = o.ABISlots
	cfg.ArenaBytes = o.ArenaBytes
	cfg.LogBytes = o.LogBytes
	if o.CompactionMode == LevelByLevel {
		cfg.CompactionMode = core.LevelByLevel
	} else {
		cfg.CompactionMode = core.DirectCompaction
	}
	cfg.WriteIntensive = o.WriteIntensive
	cfg.MaintenanceWorkers = o.MaintenanceWorkers
	cfg.GetProtect = core.GPMConfig{
		Enabled:          o.GetProtect.Enabled,
		EnterThresholdNs: o.GetProtect.EnterThresholdNs,
		ExitThresholdNs:  o.GetProtect.ExitThresholdNs,
		MaxDumps:         o.GetProtect.MaxDumps,
		WindowSize:       4096,
		SampleEvery:      16,
	}
	cfg.Seed = o.Seed
	return cfg
}

// DB is a ChameleonDB instance. All methods are safe for concurrent use.
type DB struct {
	store *core.Store
	kv    kvstore.Store // store, behind the hot cache when one is configured
	pool  sync.Pool
}

// Open creates a store with the given options.
func Open(opts Options) (*DB, error) {
	s, err := core.Open(opts.coreConfig())
	if err != nil {
		return nil, err
	}
	db := &DB{store: s, kv: hotcache.Wrap(s, hotcache.New(opts.HotCacheBytes))}
	db.pool.New = func() any { return db.NewSession() }
	return db, nil
}

// Session is a per-goroutine handle: it owns a private write batch and a
// virtual clock accumulating the cost of its operations. Not safe for
// concurrent use.
type Session struct {
	inner kvstore.ServingSession
	clock *simclock.Clock
}

// NewSession creates a session.
func (db *DB) NewSession() *Session {
	c := simclock.New(0)
	return &Session{inner: db.kv.NewSession(c).(kvstore.ServingSession), clock: c}
}

// Put inserts or updates a key.
func (s *Session) Put(key, value []byte) error { return s.inner.Put(key, value) }

// Get returns the value stored for key and whether it exists. The value is a
// fresh copy; use GetInto to reuse a buffer across gets.
func (s *Session) Get(key []byte) ([]byte, bool, error) { return s.inner.Get(key) }

// GetInto is the allocation-free read: the value is appended to dst (which may
// be nil) and the extended slice returned, strconv.Append style. A caller
// looping `buf, ok, _ = s.GetInto(key, buf[:0])` allocates nothing once buf
// has grown to the working value size. On a miss or error dst is returned
// unchanged. The result is a copy the caller owns — it never aliases store
// memory.
func (s *Session) GetInto(key, dst []byte) ([]byte, bool, error) {
	return s.inner.GetInto(key, dst)
}

// PutBatch applies n independent puts in one call, grouping keys by
// destination shard so each group is applied under a single shard-lock
// acquisition. Final state is identical to n sequential Puts (same-key writes
// keep their order); on error an arbitrary subset may have been applied. See
// kvstore.BatchWriter.
func (s *Session) PutBatch(keys, values [][]byte) error {
	return s.inner.PutBatch(keys, values)
}

// Delete removes a key.
func (s *Session) Delete(key []byte) error { return s.inner.Delete(key) }

// Flush makes the session's acknowledged writes durable (seals its write
// batch).
func (s *Session) Flush() error { return s.inner.Flush() }

// DeleteIfPresent deletes key and reports whether it existed. Probe and
// tombstone run atomically under the store's write path, so the answer is
// exact even with concurrent writers.
func (s *Session) DeleteIfPresent(key []byte) (bool, error) { return s.inner.DeleteIfPresent(key) }

// IncrBy atomically adds delta to the decimal integer stored at key (missing
// keys count from 0) and returns the new value.
func (s *Session) IncrBy(key []byte, delta int64) (int64, error) { return s.inner.IncrBy(key, delta) }

// KV is one key/value pair returned by a scan.
type KV = kvstore.KV

// Snapshot is a stable point-in-time view for multi-call scans; see
// Session.Snapshot. Release it when done.
type Snapshot = kvstore.Snapshot

// Scan pages through the store in hash order: pass cursor 0 to start, feed
// the returned cursor back in, stop when it returns 0. Each call captures its
// own per-shard view (Redis-SCAN guarantees); use Snapshot for a stable view.
func (s *Session) Scan(cursor uint64, limit int) ([]KV, uint64, error) {
	return s.inner.Scan(cursor, limit)
}

// Snapshot captures a stable view of the whole store: scans against it never
// see writes issued after this call. The snapshot pins internal resources
// (epoch reclamation) until released.
func (s *Session) Snapshot() (Snapshot, error) { return s.inner.Snapshot() }

// VirtualNanos returns the simulated time this session's operations have
// consumed on the modeled hardware.
func (s *Session) VirtualNanos() int64 { return s.clock.Now() }

func (db *DB) withSession(fn func(*Session) error) error {
	s := db.pool.Get().(*Session)
	err := fn(s)
	db.pool.Put(s)
	return err
}

// Put inserts or updates a key.
func (db *DB) Put(key, value []byte) error {
	return db.withSession(func(s *Session) error { return s.Put(key, value) })
}

// Get returns the value stored for key and whether it exists.
func (db *DB) Get(key []byte) (val []byte, ok bool, err error) {
	err = db.withSession(func(s *Session) error {
		val, ok, err = s.Get(key)
		return err
	})
	return val, ok, err
}

// Delete removes a key.
func (db *DB) Delete(key []byte) error {
	return db.withSession(func(s *Session) error { return s.Delete(key) })
}

// PutBatch applies n independent puts with shard-affine dispatch; see
// Session.PutBatch.
func (db *DB) PutBatch(keys, values [][]byte) error {
	return db.withSession(func(s *Session) error { return s.PutBatch(keys, values) })
}

// Flush makes all pooled sessions' acknowledged writes durable. Sessions
// created with NewSession must be flushed by their owners. Like the server's
// FLUSHALL it persists every session's buffered log entries, then flushes one
// pooled session: that Flush is what returns a medium error latched by any of
// the persists.
func (db *DB) Flush() error {
	return db.withSession(func(s *Session) error {
		db.store.Log().SyncAll(s.clock)
		return s.Flush()
	})
}

// SetWriteIntensive toggles Write-Intensive Mode at runtime (paper
// Section 2.3 frames it as a user option).
func (db *DB) SetWriteIntensive(on bool) { db.store.SetWriteIntensive(on) }

// GetProtectActive reports whether the dynamic Get-Protect Mode is engaged.
func (db *DB) GetProtectActive() bool { return db.store.GPMActive() }

// Crash simulates a power failure on the underlying device: all volatile
// state (MemTables, ABIs, unflushed batches) is lost. Quiesce all sessions
// first. Call Recover before further use.
func (db *DB) Crash() { db.kv.Crash() }

// Recover rebuilds the store after Crash and returns the simulated restart
// times: ready is when requests can be served again; full additionally
// includes the background ABI rebuild.
func (db *DB) Recover() (readyNanos, fullNanos int64, err error) {
	c := simclock.New(0)
	if err := db.store.Recover(c); err != nil {
		return 0, 0, err
	}
	r, f := db.store.RecoverTimes()
	return r, f, nil
}

// Stats reports operation and device counters.
type Stats struct {
	// Puts is the number of completed value writes and Deletes the number of
	// tombstone appends (kept apart so puts+deletes reconciles against log
	// entries appended); Flushes/Spills the MemTable flush and
	// Write-Intensive spill counts; UpperCompactions and LastCompactions the
	// compaction counts; Dumps the Get-Protect ABI dumps.
	Puts, Deletes, Flushes, Spills           int64
	UpperCompactions, LastCompactions, Dumps int64
	// Gets served per index structure (paper Figure 6's three-probe path).
	GetMemTable, GetABI, GetDumped, GetUpper, GetLast, GetMiss int64
	// Log garbage collection activity (CompactLog).
	LogGCs, LogGCRelocated, LogGCDropped int64
	// Background maintenance pipeline activity (zero when
	// Options.MaintenanceWorkers is 0): MemTable freezes, write
	// backpressure events, and jobs run per kind.
	MemFreezes, PutSlowdowns, PutStalls                             int64
	MaintJobsFlush, MaintJobsSpill, MaintJobsCompact, MaintJobsLast int64
	// Device-level media accounting (the simulated ipmwatch).
	LogicalBytesWritten, MediaBytesWritten, MediaBytesRead int64
	// DRAMFootprintBytes is the store's volatile memory use.
	DRAMFootprintBytes int64
}

// Stats returns a snapshot of the store's counters.
func (db *DB) Stats() Stats {
	s := db.store.Stats()
	d := db.store.DeviceStats()
	return Stats{
		Puts: s.Puts, Deletes: s.Deletes, Flushes: s.Flushes, Spills: s.Spills,
		UpperCompactions: s.UpperCompactions, LastCompactions: s.LastCompactions, Dumps: s.Dumps,
		GetMemTable: s.GetMemTable, GetABI: s.GetABI, GetDumped: s.GetDumped,
		GetUpper: s.GetUpper, GetLast: s.GetLast, GetMiss: s.GetMiss,
		LogGCs: s.LogGCs, LogGCRelocated: s.LogGCRelocated, LogGCDropped: s.LogGCDropped,
		MemFreezes: s.MemFreezes, PutSlowdowns: s.PutSlowdowns, PutStalls: s.PutStalls,
		MaintJobsFlush: s.MaintJobsFlush, MaintJobsSpill: s.MaintJobsSpill,
		MaintJobsCompact: s.MaintJobsCompact, MaintJobsLast: s.MaintJobsLastLevel,
		LogicalBytesWritten: d.LogicalBytesWritten,
		MediaBytesWritten:   d.MediaBytesWritten,
		MediaBytesRead:      d.MediaBytesRead,
		DRAMFootprintBytes:  db.kv.DRAMFootprint(),
	}
}

// MediaBytesByPurpose splits Stats().MediaBytesWritten by what the bytes were
// written for: "log", "flush", "upper_compaction", "last_compaction",
// "abi_dump", "manifest", "gc_relocation". The purposes sum to the total.
func (db *DB) MediaBytesByPurpose() map[string]int64 { return db.store.MediaBytesByPurpose() }

// DRAMBytesByPurpose splits the engine's share of Stats().DRAMFootprintBytes
// (all of it without a hot cache) by what the bytes are held for:
// "memtable", "frozen", "abi", "accelerators", "gpm_window".
func (db *DB) DRAMBytesByPurpose() map[string]int64 { return db.store.DRAMBytesByPurpose() }

// WriteAmplification returns media bytes written per logical byte.
func (s Stats) WriteAmplification() float64 {
	if s.LogicalBytesWritten == 0 {
		return 0
	}
	return float64(s.MediaBytesWritten) / float64(s.LogicalBytesWritten)
}

// CompactLog reclaims space from the head of the value log by relocating
// live entries and freeing emptied segments back to the simulated device —
// log garbage collection is this implementation's extension; the paper
// leaves it out of scope. Quiesce all sessions first (like Crash/Recover it
// is a maintenance operation). It returns the bytes freed and the virtual
// time the collection consumed.
func (db *DB) CompactLog(reclaimBytes int64) (freedBytes, virtualNanos int64, err error) {
	c := simclock.New(0)
	freed, err := db.store.CompactLog(c, reclaimBytes)
	return freed, c.Now(), err
}

// Close releases the store.
func (db *DB) Close() error { return db.store.Close() }

// String describes the store briefly.
func (db *DB) String() string {
	cfg := db.store.Config()
	return fmt.Sprintf("ChameleonDB(shards=%d, levels=%d, ratio=%d)", cfg.Shards, cfg.Levels, cfg.Ratio)
}
