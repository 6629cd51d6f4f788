// Package novelsm implements the NoveLSM baseline (Kannan et al., ATC'18)
// as configured in the paper's Section 3.7: an LSM-tree whose mutable
// MemTable is a skip list in persistent memory (inserts are small in-place
// Pmem writes with heavy 256 B read-modify-write amplification), with all
// levels placed in the Pmem for the comparison, leveled compaction, bloom
// filters at every level, and no key/value separation — compactions rewrite
// values, which multiplies media writes (Figure 17(b)).
package novelsm

import (
	"errors"

	"chameleondb/internal/baselines/shell"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/skiplist"
	"chameleondb/internal/sstable"
	"chameleondb/internal/wlog"
)

// The level geometry Figure 17 runs: four L0 runs trigger a compaction, each
// level is four times the one above, and there are at most five levels.
const (
	l0Trigger = 4
	ratio     = 4
	maxLevels = 5
)

// Config sizes the store.
type Config struct {
	// MemTableBytes triggers a flush (the paper configures 128 MB total).
	MemTableBytes int64
	// ArenaBytes sizes the pmem arena.
	ArenaBytes int64
	// CacheBytes sizes the in-DRAM data cache (the paper grants NoveLSM
	// 8 GB in Section 3.7; 0 disables it).
	CacheBytes int64
}

// Store is a NoveLSM instance: one LSM, its MemTable, runs and block cache
// behind one lane, as the paper's one compaction thread runs it.
type Store struct {
	*shell.Store
	cfg  Config
	slab *pmem.Slab

	lane           shell.Lane // guards everything below
	*shell.Leveled            // levels below L0, block cache
	mem            *skiplist.List
	memBytes       int64
	l0             []*sstable.Run // oldest first
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a NoveLSM store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a NoveLSM store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.MemTableBytes < 1024 {
		return nil, errors.New("novelsm: MemTableBytes must be at least 1 KB")
	}
	sh := shell.New("NoveLSM", "novelsm", dev, cfg.ArenaBytes)
	s := &Store{
		Store:   sh,
		cfg:     cfg,
		slab:    pmem.NewSlab(sh.Arena, 1<<20),
		Leveled: sh.NewLeveled(maxLevels, cfg.CacheBytes),
	}
	s.Serve(nil, s.write, s.lookup)
	l, err := skiplist.New(sh.Arena, s.slab)
	if err != nil {
		return nil, err
	}
	s.mem = l
	return s, nil
}

// DRAMFootprint implements kvstore.Store: NoveLSM's structures are in Pmem;
// only the bloom filters and the block cache are volatile.
func (s *Store) DRAMFootprint() int64 {
	s.lane.Lock()
	defer s.lane.Unlock()
	return s.Footprint(s.l0)
}

// Crash implements kvstore.Store. NoveLSM's design point is that everything
// — including the mutable MemTable — is already persistent, so nothing
// volatile is lost except the bloom filters.
func (s *Store) Crash() {
	s.Store.Crash()
	s.lane.Reset()
	s.Cache.Reset()
}

// Recover implements kvstore.Store: reattach the persistent structures and
// rebuild the volatile filters.
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	s.lane.Lock()
	for _, r := range s.Runs(s.l0) {
		r.ChargeScan(c)
	}
	s.lane.Unlock()
	s.Recovered(c, start)
	return nil
}

// payload layout in the slab: [2 B keyLen][2 B flags][4 B valLen][key][value]
const payloadHeader = 8

func (s *Store) writePayload(c *simclock.Clock, key, value []byte, tomb bool) (int64, error) {
	sz := int64(payloadHeader+len(key)+len(value)+7) &^ 7
	off, err := s.slab.Alloc(sz)
	if err != nil {
		return 0, err
	}
	buf := s.Arena.Bytes(off, sz)
	buf[0], buf[1] = byte(len(key)), byte(len(key)>>8)
	if tomb {
		buf[2] = 1
	}
	buf[4], buf[5], buf[6], buf[7] = byte(len(value)), byte(len(value)>>8), byte(len(value)>>16), byte(len(value)>>24)
	copy(buf[payloadHeader:], key)
	copy(buf[payloadHeader+len(key):], value)
	// An unaligned small persisted write: the RMW-amplified access pattern
	// of building a mutable structure directly in the Pmem.
	s.Arena.Persist(c, off, sz)
	return off, nil
}

// readPayload decodes the payload at off. A get charges its random read to
// c; a flush, which charges the whole MemTable as one sequential read,
// passes nil.
func (s *Store) readPayload(c *simclock.Clock, off int64) (key, value []byte, tomb bool) {
	hdr := s.Arena.Bytes(off, payloadHeader)
	keyLen := int(hdr[0]) | int(hdr[1])<<8
	valLen := int(hdr[4]) | int(hdr[5])<<8 | int(hdr[6])<<16 | int(hdr[7])<<24
	if c != nil {
		s.Dev.ReadRandom(c, off, int64(payloadHeader+keyLen+valLen+7)&^7)
	}
	buf := s.Arena.Bytes(off, int64(payloadHeader+keyLen+valLen))
	return buf[payloadHeader : payloadHeader+keyLen], buf[payloadHeader+keyLen:], hdr[2]&1 != 0
}

// flushLocked turns the MemTable into an L0 run and cascades compactions.
func (s *Store) flushLocked(c *simclock.Clock) error {
	if s.mem.Len() == 0 {
		return nil
	}
	entries := make([]sstable.Entry, 0, s.mem.Len())
	s.mem.Iterate(func(h, ref uint64) bool {
		key, val, tomb := s.readPayload(nil, int64(ref))
		entries = append(entries, sstable.Entry{Hash: h, Key: key, Value: val, Tombstone: tomb})
		return true
	})
	// Reading the memtable out of Pmem for the flush.
	s.Dev.ReadSeq(c, 0, s.memBytes)
	run, err := sstable.Build(c, s.Arena, entries, sstable.BuildOptions{WithFilter: true})
	if err != nil {
		return err
	}
	// The run directory survives Crash (it models durable LSM metadata):
	// never commit a run whose build a power failure interrupted, and never
	// reset the persistent MemTable afterwards — its contents would be the
	// only surviving copy.
	if s.Dev.PowerFailed() {
		run.Release()
		return device.ErrPowerFailed
	}
	s.l0 = append(s.l0, run)
	s.mem.Reset(c)
	s.memBytes = 0
	return s.Compact(c, &s.l0, l0Trigger, s.cfg.MemTableBytes, ratio)
}

// write is a skip-list insert directly in the Pmem.
func (s *Store) write(c *simclock.Clock, _ *wlog.Appender, h uint64, key, value []byte, flags uint16) error {
	var err error
	s.lane.Do(c, func() {
		var off int64
		if off, err = s.writePayload(c, key, value, flags&wlog.FlagTombstone != 0); err != nil {
			return
		}
		s.Cache.Invalidate(h)
		if err = s.mem.Insert(c, h, uint64(off)); err != nil {
			return
		}
		s.memBytes += int64(payloadHeader + len(key) + len(value))
		if s.memBytes >= s.cfg.MemTableBytes {
			err = s.flushLocked(c)
		}
	})
	return err
}

// lookup searches the in-Pmem MemTable (random Pmem reads), then L0 runs
// newest-first, then the levels — filters, binary searches, and block reads
// all the way down (Section 3.7).
func (s *Store) lookup(c *simclock.Clock, h uint64, key []byte) ([]byte, bool, error) {
	var v []byte
	var ok bool
	s.lane.Do(c, func() { v, ok = s.Walk(c, h, key, s.memGet, s.l0, (*sstable.Run).Get) })
	return v, ok, nil
}

func (s *Store) memGet(c *simclock.Clock, h uint64) (key, value []byte, tomb, ok bool) {
	ref, ok := s.mem.Get(c, h)
	if !ok {
		return nil, nil, false, false
	}
	key, value, tomb = s.readPayload(c, int64(ref))
	return key, value, tomb, true
}
