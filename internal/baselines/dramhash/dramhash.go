// Package dramhash implements the Dram-Hash baseline (paper Section 3.2): a
// robin-hood hash index held entirely in DRAM over a value log in persistent
// memory. It has the best put and get performance in the evaluation — no
// LSM maintenance, no Pmem index writes — but the largest DRAM footprint,
// and a crash loses the whole index: restart scans the entire log (Table 4's
// 102-second recovery).
package dramhash

import (
	"bytes"
	"errors"
	"math/bits"

	"chameleondb/internal/baselines/shell"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/robinhood"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// Config sizes the store.
type Config struct {
	// Stripes is the number of independently locked index stripes (power of
	// two).
	Stripes int
	// InitialCapacity is each stripe's starting slot count.
	InitialCapacity int
	// ArenaBytes / LogBytes size the pmem arena and value log.
	ArenaBytes int64
	LogBytes   int64
}

// DefaultConfig returns the geometry the experiments run. Few stripes: the
// paper's Dram-Hash is one robin-hood map, whose whole-table rehashes produce
// the multi-second worst-case put (Table 2). More stripes would dilute the
// spike.
func DefaultConfig() Config {
	return Config{Stripes: 16, InitialCapacity: 1024, ArenaBytes: 1 << 30, LogBytes: 1<<30 - 1<<24}
}

type stripe struct {
	shell.Lane
	rh *robinhood.Table
}

// Store is a Dram-Hash instance.
type Store struct {
	*shell.Store
	cfg Config
	log *wlog.Log

	stripes []*stripe
	shift   uint
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a Dram-Hash store on a fresh device.
func Open(cfg Config) (*Store, error) {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		return nil, errors.New("dramhash: Stripes must be a power of two")
	}
	sh := shell.New("Dram-Hash", "dramhash", device.New(device.OptanePmem), cfg.ArenaBytes)
	log, err := wlog.New(sh.Arena, cfg.LogBytes)
	if err != nil {
		return nil, err
	}
	// The stripe is the hash's top bits: shift is 64 minus log2(Stripes).
	s := &Store{Store: sh, cfg: cfg, log: log, shift: 65 - uint(bits.Len(uint(cfg.Stripes)))}
	s.Serve(log, s.write, s.lookup)
	s.stripes = make([]*stripe, cfg.Stripes)
	for i := range s.stripes {
		s.stripes[i] = &stripe{rh: robinhood.New(cfg.InitialCapacity)}
	}
	return s, nil
}

// DRAMFootprint implements kvstore.Store: the full index lives in DRAM.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, st := range s.stripes {
		total += st.rh.DRAMFootprint()
	}
	return total
}

func (s *Store) stripeFor(h uint64) *stripe {
	return s.stripes[h>>s.shift] // a shift of 64 yields 0: one stripe
}

// Crash implements kvstore.Store: the DRAM index is lost entirely.
func (s *Store) Crash() {
	s.Store.Crash()
	for _, st := range s.stripes {
		st.rh = robinhood.New(s.cfg.InitialCapacity)
		st.Lane.Reset()
	}
}

// Recover implements kvstore.Store: the entire log is scanned to rebuild the
// index — the slow restart that motivates keeping index structure in the
// Pmem (Challenge 3).
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	err := s.log.Scan(c, s.log.Base(), func(e wlog.Entry) bool {
		h := shell.Hash(c, e.Key)
		st := s.stripeFor(h)
		if e.Tombstone() {
			probes, _ := st.rh.Delete(h)
			c.Advance(device.DRAMProbeCost(probes))
			return true
		}
		probes, grown := st.rh.Insert(h, uint64(e.LSN))
		c.Advance(device.DRAMProbeCost(probes) + int64(grown)*device.CostDRAMRandAccess)
		return true
	})
	if err != nil {
		return err
	}
	s.Recovered(c, start)
	return nil
}

// write appends the entry, then updates the stripe's robin-hood index.
func (s *Store) write(c *simclock.Clock, ap *wlog.Appender, h uint64, key, value []byte, flags uint16) error {
	c.Advance(int64(float64(wlog.EntrySize(len(key), len(value))) * device.CostDRAMSeqPerByte))
	st := s.stripeFor(h)
	var err error
	st.Do(c, func() {
		var lsn int64
		if lsn, err = ap.AppendEntry(c, key, value, flags); err != nil {
			return
		}
		if flags&wlog.FlagTombstone != 0 {
			probes, _ := st.rh.Delete(h)
			c.Advance(device.DRAMProbeCost(probes))
			return
		}
		probes, grown := st.rh.Insert(h, uint64(lsn))
		// A resize re-places every entry (streamed, cache-friendly): the
		// multi-second rehash spike behind Dram-Hash's worst-case put
		// latency (Table 2).
		c.Advance(device.DRAMProbeCost(probes) + int64(grown)*device.CostCompactionPerSlot)
	})
	return err
}

// lookup is one DRAM index lookup plus one Pmem log read — the latency floor
// the other stores are measured against.
func (s *Store) lookup(c *simclock.Clock, h uint64, key []byte) ([]byte, bool, error) {
	st := s.stripeFor(h)
	var ref uint64
	var ok bool
	st.Do(c, func() {
		var probes int
		ref, probes, ok = st.rh.Get(h)
		c.Advance(device.DRAMProbeCost(probes))
	})
	if !ok {
		return nil, false, nil
	}
	e, err := s.log.Read(c, int64(ref))
	if err != nil {
		return nil, false, err
	}
	if !bytes.Equal(e.Key, key) {
		return nil, false, nil // full hash collision; see core/session.go
	}
	return bytes.Clone(e.Value), true, nil
}
