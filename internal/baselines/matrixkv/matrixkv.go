// Package matrixkv implements the MatrixKV baseline (Yao et al., ATC'20) as
// configured in the paper's Section 3.7: a RocksDB-style LSM whose L0 is a
// "matrix container" in persistent memory — one row per flushed MemTable,
// searched row by row with cross-row hints and no bloom filters — with
// leveled, filtered levels below (placed in the Pmem for this comparison).
// Each row carries RowTable metadata written next to the data (about 45% of
// the KV size at 64 B values), and compactions rewrite values, both of which
// inflate media writes (Figure 17(b)).
package matrixkv

import (
	"bytes"
	"errors"
	"sync/atomic"

	"chameleondb/internal/baselines/shell"
	"chameleondb/internal/blockcache"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/sstable"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// The geometry Figure 17 runs: four matrix rows trigger a column compaction
// into L1, each level below is four times the one above, there are at most
// four of them, and each KV item carries 36 B of RowTable metadata.
const (
	maxRows           = 4
	ratio             = 4
	maxLevels         = 4
	metaBytesPerEntry = 36
)

// Config sizes the store.
type Config struct {
	// MemTableBytes triggers a flush into a matrix row.
	MemTableBytes int64
	// ArenaBytes / WALBytes size the arena and the write-ahead log.
	ArenaBytes int64
	WALBytes   int64
	// CacheBytes sizes the in-DRAM data cache (the paper grants MatrixKV
	// 8 GB in Section 3.7; 0 disables it).
	CacheBytes int64
}

type memEntry struct {
	key   []byte
	value []byte
	tomb  bool
}

// Store is a MatrixKV instance: one LSM, its MemTable, matrix, levels and
// block cache behind one lane, as the paper's one compaction thread runs it.
type Store struct {
	*shell.Store
	cfg Config
	wal *wlog.Log

	lane       shell.Lane // guards everything below
	mem        map[uint64]*memEntry
	memBytes   int64
	flushedLSN int64 // WAL watermark: rows cover everything below

	rows   []*sstable.Run // matrix L0, oldest first
	levels []*sstable.Run
	cache  *blockcache.Cache

	// compactions is atomic: the metrics registry reads it outside the lane.
	compactions atomic.Int64
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a MatrixKV store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a MatrixKV store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.MemTableBytes < 1024 {
		return nil, errors.New("matrixkv: MemTableBytes must be at least 1 KB")
	}
	sh := shell.New("MatrixKV", "matrixkv", dev, cfg.ArenaBytes)
	wal, err := wlog.New(sh.Arena, cfg.WALBytes)
	if err != nil {
		return nil, err
	}
	s := &Store{
		Store:      sh,
		cfg:        cfg,
		wal:        wal,
		mem:        make(map[uint64]*memEntry),
		levels:     make([]*sstable.Run, maxLevels),
		flushedLSN: wal.Base(),
		cache:      blockcache.New(cfg.CacheBytes),
	}
	obs.RegisterLog(s.Registry(), wal)
	s.Registry().CounterFunc("compactions", s.compactions.Load)
	return s, nil
}

// Compactions reports how many compactions have run.
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// DRAMFootprint implements kvstore.Store: the DRAM MemTable plus filters.
func (s *Store) DRAMFootprint() int64 {
	s.lane.Lock()
	defer s.lane.Unlock()
	total := s.memBytes + int64(len(s.mem))*48 + s.cache.UsedBytes()
	for _, r := range s.levels {
		if r != nil {
			total += r.DRAMFootprint()
		}
	}
	return total
}

// Crash implements kvstore.Store: the DRAM MemTable is lost; the matrix, the
// levels, and the WAL survive.
func (s *Store) Crash() {
	s.Store.Crash()
	s.mem = make(map[uint64]*memEntry)
	s.memBytes = 0
	s.lane.Reset()
	s.cache.Reset()
}

// Recover implements kvstore.Store: replay the WAL tail into the MemTable.
func (s *Store) Recover(c *simclock.Clock) error {
	err := s.wal.Scan(c, min(s.wal.Tail(), s.flushedLSN), func(e wlog.Entry) bool {
		c.Advance(device.CostHash64)
		if e.LSN >= s.flushedLSN {
			s.insertMem(c, xhash.Sum64(e.Key), e.Key, e.Value, e.Tombstone())
		}
		return true
	})
	if err != nil {
		return err
	}
	s.Recovered()
	return nil
}

func (s *Store) insertMem(c *simclock.Clock, h uint64, key, value []byte, tomb bool) {
	c.Advance(device.CostDRAMRandAccess)
	if old, ok := s.mem[h]; ok {
		s.memBytes -= int64(len(old.key) + len(old.value))
	}
	s.mem[h] = &memEntry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		tomb:  tomb,
	}
	s.memBytes += int64(len(key) + len(value))
}

// flushLocked writes the MemTable as a new matrix row (data plus RowTable
// metadata, no filter) and compacts the matrix when it is full.
func (s *Store) flushLocked(c *simclock.Clock) error {
	if len(s.mem) == 0 {
		return nil
	}
	entries := make([]sstable.Entry, 0, len(s.mem))
	for h, e := range s.mem {
		entries = append(entries, sstable.Entry{Hash: h, Key: e.key, Value: e.value, Tombstone: e.tomb})
	}
	row, err := sstable.Build(c, s.Arena, entries, sstable.BuildOptions{
		WithFilter:        false, // no filters in the matrix L0 (Section 3.7)
		MetaBytesPerEntry: metaBytesPerEntry,
		SortCost:          true,
	})
	if err != nil {
		return err
	}
	// The row/level directory plays the role of a durable manifest (it
	// survives Crash): committing a row whose build was interrupted by power
	// failure would present partially-written data as durable.
	if s.Dev.PowerFailed() {
		row.Release()
		return device.ErrPowerFailed
	}
	s.rows = append(s.rows, row)
	s.mem = make(map[uint64]*memEntry)
	s.memBytes = 0
	s.flushedLSN = s.wal.MinNextLSN()
	if len(s.rows) >= maxRows {
		// A column compaction into L1; MatrixKV's fine-grained column
		// compactions are modeled in aggregate.
		l0Bytes := s.cfg.MemTableBytes * maxRows
		return sstable.CompactLeveled(c, s.Arena, &s.rows, s.levels, l0Bytes, ratio, &s.compactions)
	}
	return nil
}

// Session is a per-worker handle.
type Session struct {
	store *Store
	clock *simclock.Clock
	ap    *wlog.Appender
}

var _ kvstore.Session = (*Session)(nil)

// NewSession implements kvstore.Store.
func (s *Store) NewSession(c *simclock.Clock) kvstore.Session {
	return &Session{store: s, clock: c, ap: s.wal.NewAppender()}
}

// Clock implements kvstore.Session.
func (se *Session) Clock() *simclock.Clock { return se.clock }

func (se *Session) write(key, value []byte, flags uint16) error {
	if err := se.store.Err(); err != nil {
		return err
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	s := se.store
	var err error
	s.lane.Do(c, func() {
		if _, err = se.ap.AppendEntry(c, key, value, flags); err != nil {
			return
		}
		s.cache.Invalidate(h)
		s.insertMem(c, h, key, value, flags&wlog.FlagTombstone != 0)
		if s.memBytes >= s.cfg.MemTableBytes {
			err = s.flushLocked(c)
		}
	})
	if err == nil {
		s.Ops.CountWrite(flags&wlog.FlagTombstone != 0)
	}
	return err
}

// Put implements kvstore.Session: WAL append plus DRAM MemTable insert.
func (se *Session) Put(key, value []byte) error { return se.write(key, value, 0) }

// Delete implements kvstore.Session.
func (se *Session) Delete(key []byte) error { return se.write(key, nil, wlog.FlagTombstone) }

// Get implements kvstore.Session: DRAM MemTable, then the matrix rows one by
// one (hint + probe each, newest first), then the filtered levels.
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	if err := se.store.Err(); err != nil {
		return nil, false, err
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	s := se.store
	var v []byte
	var ok bool
	s.lane.Do(c, func() { v, ok = s.get(c, h, key) })
	s.Ops.CountGet(ok)
	return v, ok, nil
}

func (s *Store) get(c *simclock.Clock, h uint64, key []byte) ([]byte, bool) {
	if v, ok := s.cache.Get(c, h); ok {
		return append([]byte(nil), v...), true
	}
	c.Advance(device.CostDRAMRandAccess)
	if e, ok := s.mem[h]; ok {
		if e.tomb || !bytes.Equal(e.key, key) {
			return nil, false
		}
		return append([]byte(nil), e.value...), true
	}
	for i := len(s.rows) - 1; i >= 0; i-- {
		k, v, tomb, ok := s.rows[i].GetHinted(c, h)
		if !ok {
			continue
		}
		if tomb || !bytes.Equal(k, key) {
			return nil, false
		}
		s.cache.Put(h, v)
		return append([]byte(nil), v...), true
	}
	for _, r := range s.levels {
		if r == nil {
			continue
		}
		k, v, tomb, ok := r.Get(c, h)
		if !ok {
			continue
		}
		if tomb || !bytes.Equal(k, key) {
			return nil, false
		}
		s.cache.Put(h, v)
		return append([]byte(nil), v...), true
	}
	return nil, false
}

// Flush implements kvstore.Session: seals the WAL batch.
func (se *Session) Flush() error {
	if err := se.store.Err(); err != nil {
		return err
	}
	return se.ap.Flush(se.clock)
}
