// Package novelsm implements the NoveLSM baseline (Kannan et al., ATC'18)
// as configured in the paper's Section 3.7: an LSM-tree whose mutable
// MemTable is a skip list in persistent memory (inserts are small in-place
// Pmem writes with heavy 256 B read-modify-write amplification), with all
// levels placed in the Pmem for the comparison, leveled compaction, bloom
// filters at every level, and no key/value separation — compactions rewrite
// values, which multiplies media writes (Figure 17(b)).
package novelsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"chameleondb/internal/baselines/shell"
	"chameleondb/internal/blockcache"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/skiplist"
	"chameleondb/internal/sstable"
	"chameleondb/internal/xhash"
)

// Config sizes the store.
type Config struct {
	// Stripes is the number of independent LSM instances (the paper runs
	// one compaction thread; 1 reproduces that).
	Stripes int
	// MemTableBytes triggers a flush (the paper configures 128 MB total).
	MemTableBytes int64
	// L0Trigger is the number of L0 runs that triggers a compaction.
	L0Trigger int
	// Ratio is the leveled size ratio (LevelDB's 10).
	Ratio int
	// MaxLevels bounds the level count.
	MaxLevels int
	// ArenaBytes sizes the pmem arena.
	ArenaBytes int64
	// CacheBytes sizes the in-DRAM data cache (the paper grants NoveLSM
	// 8 GB in Section 3.7; 0 disables it).
	CacheBytes int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Stripes:       1,
		MemTableBytes: 1 << 20,
		L0Trigger:     4,
		Ratio:         10,
		MaxLevels:     5,
		ArenaBytes:    2 << 30,
	}
}

type stripe struct {
	shell.Lane

	mem      *skiplist.List
	memBytes int64
	l0       []*sstable.Run // oldest first
	levels   []*sstable.Run // levels[k] is L(k+1): one run each, leveled
	cache    *blockcache.Cache
}

// Store is a NoveLSM instance.
type Store struct {
	*shell.Store
	cfg  Config
	slab *pmem.Slab

	stripes []*stripe

	// compactions is atomic: stripes compact independently under their own
	// locks, so a plain counter would race when Stripes > 1.
	compactions atomic.Int64
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a NoveLSM store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a NoveLSM store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		return nil, errors.New("novelsm: Stripes must be a power of two")
	}
	if cfg.MaxLevels < 2 || cfg.Ratio < 2 || cfg.L0Trigger < 2 || cfg.MemTableBytes < 1024 {
		return nil, errors.New("novelsm: invalid geometry")
	}
	sh := shell.New("NoveLSM", "novelsm", dev, cfg.ArenaBytes)
	s := &Store{Store: sh, cfg: cfg, slab: pmem.NewSlab(sh.Arena, 1<<20)}
	s.Registry().CounterFunc("compactions", s.compactions.Load)
	s.stripes = make([]*stripe, cfg.Stripes)
	for i := range s.stripes {
		l, err := skiplist.New(sh.Arena, s.slab, int64(i)+1)
		if err != nil {
			return nil, err
		}
		s.stripes[i] = &stripe{
			mem:    l,
			levels: make([]*sstable.Run, cfg.MaxLevels),
			cache:  blockcache.New(cfg.CacheBytes / int64(cfg.Stripes)),
		}
	}
	return s, nil
}

// Compactions reports how many compactions have run.
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// DRAMFootprint implements kvstore.Store: NoveLSM's structures are in Pmem;
// only the bloom filters are volatile.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, st := range s.stripes {
		st.Lock()
		for _, r := range st.l0 {
			total += r.DRAMFootprint()
		}
		for _, r := range st.levels {
			if r != nil {
				total += r.DRAMFootprint()
			}
		}
		total += st.cache.UsedBytes()
		st.Unlock()
	}
	return total
}

func (s *Store) stripeFor(h uint64) *stripe {
	return s.stripes[(h>>8)&uint64(len(s.stripes)-1)]
}

// Crash implements kvstore.Store. NoveLSM's design point is that everything
// — including the mutable MemTable — is already persistent, so nothing
// volatile is lost except the bloom filters.
func (s *Store) Crash() {
	s.Store.Crash()
	for _, st := range s.stripes {
		st.Lane.Reset()
		st.cache.Reset()
	}
}

// Recover implements kvstore.Store: reattach the persistent structures and
// rebuild the volatile filters.
func (s *Store) Recover(c *simclock.Clock) error {
	for _, st := range s.stripes {
		st.Lock()
		for _, r := range st.l0 {
			r.ChargeScan(c)
		}
		for _, r := range st.levels {
			if r != nil {
				r.ChargeScan(c)
			}
		}
		st.Unlock()
	}
	s.Recovered()
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

func (s *Store) readPayload(c *simclock.Clock, off int64) (key, value []byte, tomb bool) {
	hdr := s.Arena.Bytes(off, payloadHeader)
	keyLen := int(hdr[0]) | int(hdr[1])<<8
	tomb = hdr[2]&1 != 0
	valLen := int(hdr[4]) | int(hdr[5])<<8 | int(hdr[6])<<16 | int(hdr[7])<<24
	sz := int64(payloadHeader+keyLen+valLen+7) &^ 7
	buf := s.Arena.ReadRandom(c, off, sz)
	return buf[payloadHeader : payloadHeader+keyLen], buf[payloadHeader+keyLen : payloadHeader+keyLen+valLen], tomb
}

// flushLocked turns the MemTable into an L0 run and cascades compactions.
func (s *Store) flushLocked(c *simclock.Clock, st *stripe) error {
	if st.mem.Len() == 0 {
		return nil
	}
	entries := make([]sstable.Entry, 0, st.mem.Len())
	st.mem.Iterate(func(h, ref uint64) bool {
		key, val, tomb := s.readPayloadVolatile(ref)
		entries = append(entries, sstable.Entry{Hash: h, Key: key, Value: val, Tombstone: tomb})
		return true
	})
	// Reading the memtable out of Pmem for the flush.
	s.Dev.ReadSeq(c, 0, st.memBytes)
	run, err := sstable.Build(c, s.Arena, entries, sstable.BuildOptions{WithFilter: true})
	if err != nil {
		return err
	}
	// The stripe's run directory survives Crash (it models durable LSM
	// metadata): never commit a run whose build a power failure interrupted,
	// and never reset the persistent MemTable afterwards — its contents would
	// be the only surviving copy.
	if s.Dev.PowerFailed() {
		run.Release()
		return device.ErrPowerFailed
	}
	st.l0 = append(st.l0, run)
	st.mem.Reset(c)
	st.memBytes = 0
	if len(st.l0) >= s.cfg.L0Trigger {
		l0Bytes := s.cfg.MemTableBytes * int64(s.cfg.L0Trigger)
		return sstable.CompactLeveled(c, s.Arena, &st.l0, st.levels, l0Bytes, s.cfg.Ratio, &s.compactions)
	}
	return nil
}

func (s *Store) readPayloadVolatile(ref uint64) (key, value []byte, tomb bool) {
	off := int64(ref)
	hdr := s.Arena.Bytes(off, payloadHeader)
	keyLen := int(hdr[0]) | int(hdr[1])<<8
	tomb = hdr[2]&1 != 0
	valLen := int(hdr[4]) | int(hdr[5])<<8 | int(hdr[6])<<16 | int(hdr[7])<<24
	buf := s.Arena.Bytes(off, int64(payloadHeader+keyLen+valLen))
	return buf[payloadHeader : payloadHeader+keyLen], buf[payloadHeader+keyLen:], tomb
}

// Session is a per-worker handle.
type Session struct {
	store *Store
	clock *simclock.Clock
}

var _ kvstore.Session = (*Session)(nil)

// NewSession implements kvstore.Store.
func (s *Store) NewSession(c *simclock.Clock) kvstore.Session {
	return &Session{store: s, clock: c}
}

// Clock implements kvstore.Session.
func (se *Session) Clock() *simclock.Clock { return se.clock }

func (se *Session) write(key, value []byte, tomb bool) error {
	if err := se.store.Err(); err != nil {
		return err
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	st := se.store.stripeFor(h)
	var err error
	st.Do(c, func() {
		var off int64
		if off, err = se.store.writePayload(c, key, value, tomb); err != nil {
			return
		}
		st.cache.Invalidate(h)
		if err = st.mem.Insert(c, h, uint64(off)); err != nil {
			return
		}
		st.memBytes += int64(payloadHeader + len(key) + len(value))
		if st.memBytes >= se.store.cfg.MemTableBytes {
			err = se.store.flushLocked(c, st)
		}
	})
	if err == nil {
		se.store.Ops.CountWrite(tomb)
	}
	return err
}

// Put implements kvstore.Session: a skip-list insert directly in the Pmem.
func (se *Session) Put(key, value []byte) error { return se.write(key, value, false) }

// Delete implements kvstore.Session.
func (se *Session) Delete(key []byte) error { return se.write(key, nil, true) }

// Get implements kvstore.Session: the in-Pmem MemTable (random Pmem reads),
// then L0 runs newest-first, then the levels — filters, binary searches,
// and block reads all the way down (Section 3.7).
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	if err := se.store.Err(); err != nil {
		return nil, false, err
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	st := se.store.stripeFor(h)
	var v []byte
	var ok bool
	st.Do(c, func() { v, ok = se.store.get(c, st, h, key) })
	se.store.Ops.CountGet(ok)
	return v, ok, nil
}

func (s *Store) get(c *simclock.Clock, st *stripe, h uint64, key []byte) ([]byte, bool) {
	if v, ok := st.cache.Get(c, h); ok {
		return append([]byte(nil), v...), true
	}
	if ref, ok := st.mem.Get(c, h); ok {
		k, v, tomb := s.readPayload(c, int64(ref))
		if !bytes.Equal(k, key) || tomb {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	check := func(r *sstable.Run) ([]byte, bool, bool) {
		k, v, tomb, ok := r.Get(c, h)
		if !ok {
			return nil, false, false
		}
		if tomb || !bytes.Equal(k, key) {
			return nil, false, true
		}
		st.cache.Put(h, v)
		return append([]byte(nil), v...), true, true
	}
	for i := len(st.l0) - 1; i >= 0; i-- {
		if v, found, done := check(st.l0[i]); done {
			return v, found
		}
	}
	for _, r := range st.levels {
		if r == nil {
			continue
		}
		if v, found, done := check(r); done {
			return v, found
		}
	}
	return nil, false
}

// Flush implements kvstore.Session: NoveLSM persists every put in place, so
// there is nothing buffered.
func (se *Session) Flush() error { return se.store.Err() }

// String implements fmt.Stringer.
func (s *Store) String() string {
	return fmt.Sprintf("NoveLSM(stripes=%d, memtable=%dB)", s.cfg.Stripes, s.cfg.MemTableBytes)
}
