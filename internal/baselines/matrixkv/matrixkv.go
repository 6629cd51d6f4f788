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
	"errors"

	"chameleondb/internal/baselines/shell"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/sstable"
	"chameleondb/internal/wlog"
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

// Store is a MatrixKV instance: one LSM, its MemTable, matrix, levels and
// block cache behind one lane, as the paper's one compaction thread runs it.
type Store struct {
	*shell.Store
	cfg Config
	wal *wlog.Log

	lane           shell.Lane // guards everything below
	*shell.Leveled            // levels below L0, block cache
	mem            map[uint64]sstable.Entry
	memBytes       int64
	flushedLSN     int64          // WAL watermark: rows cover everything below
	rows           []*sstable.Run // matrix L0, oldest first
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
		Leveled:    sh.NewLeveled(maxLevels, cfg.CacheBytes),
		mem:        make(map[uint64]sstable.Entry),
		flushedLSN: wal.Base(),
	}
	s.Serve(wal, s.write, s.lookup)
	return s, nil
}

// DRAMFootprint implements kvstore.Store: the DRAM MemTable plus filters.
func (s *Store) DRAMFootprint() int64 {
	s.lane.Lock()
	defer s.lane.Unlock()
	return s.memBytes + int64(len(s.mem))*48 + s.Footprint(s.rows)
}

// Crash implements kvstore.Store: the DRAM MemTable is lost; the matrix, the
// levels, and the WAL survive.
func (s *Store) Crash() {
	s.Store.Crash()
	s.mem = make(map[uint64]sstable.Entry)
	s.memBytes = 0
	s.lane.Reset()
	s.Cache.Reset()
}

// Recover implements kvstore.Store: replay the WAL tail into the MemTable.
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	err := s.wal.Scan(c, min(s.wal.Tail(), s.flushedLSN), func(e wlog.Entry) bool {
		h := shell.Hash(c, e.Key)
		if e.LSN >= s.flushedLSN {
			s.insertMem(c, h, e.Key, e.Value, e.Tombstone())
		}
		return true
	})
	if err != nil {
		return err
	}
	s.Recovered(c, start)
	return nil
}

func (s *Store) insertMem(c *simclock.Clock, h uint64, key, value []byte, tomb bool) {
	c.Advance(device.CostDRAMRandAccess)
	if old, ok := s.mem[h]; ok {
		s.memBytes -= int64(len(old.Key) + len(old.Value))
	}
	s.mem[h] = sstable.Entry{
		Hash:      h,
		Key:       append([]byte(nil), key...),
		Value:     append([]byte(nil), value...),
		Tombstone: tomb,
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
	for _, e := range s.mem {
		entries = append(entries, e)
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
	s.mem = make(map[uint64]sstable.Entry)
	s.memBytes = 0
	s.flushedLSN = s.wal.MinNextLSN()
	// A full matrix is one column compaction into L1: MatrixKV's
	// fine-grained column compactions are modeled in aggregate.
	return s.Compact(c, &s.rows, maxRows, s.cfg.MemTableBytes, ratio)
}

// write is a WAL append plus a DRAM MemTable insert.
func (s *Store) write(c *simclock.Clock, ap *wlog.Appender, h uint64, key, value []byte, flags uint16) error {
	var err error
	s.lane.Do(c, func() {
		if _, err = ap.AppendEntry(c, key, value, flags); err != nil {
			return
		}
		s.Cache.Invalidate(h)
		s.insertMem(c, h, key, value, flags&wlog.FlagTombstone != 0)
		if s.memBytes >= s.cfg.MemTableBytes {
			err = s.flushLocked(c)
		}
	})
	return err
}

// lookup searches the DRAM MemTable, then the matrix rows one by one (hint
// and probe each, newest first), then the filtered levels.
func (s *Store) lookup(c *simclock.Clock, h uint64, key []byte) ([]byte, bool, error) {
	var v []byte
	var ok bool
	s.lane.Do(c, func() { v, ok = s.Walk(c, h, key, s.memGet, s.rows, (*sstable.Run).GetHinted) })
	return v, ok, nil
}

func (s *Store) memGet(c *simclock.Clock, h uint64) (key, value []byte, tomb, ok bool) {
	c.Advance(device.CostDRAMRandAccess)
	e, ok := s.mem[h]
	if !ok {
		return nil, nil, false, false
	}
	return e.Key, e.Value, e.Tombstone, true
}
