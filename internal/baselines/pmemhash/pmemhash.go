// Package pmemhash implements the Pmem-Hash baseline: CCEH (Nam et al.,
// FAST'19), a persistent extendible hash table updated in place in the
// Optane Pmem, over the shared value log. Every put performs small persisted
// writes — the log entry and the 16-byte index slot — each of which the
// device amplifies to a 256 B read-modify-write. That amplification is why
// Pmem-Hash has the lowest put throughput in the paper (Figure 10) despite
// its simple structure, while its one-probe reads keep get latency
// competitive (Figure 13). Its index is persistent, so restart is fast
// (Table 4: 2 s), needing only the volatile directory rebuilt.
package pmemhash

import (
	"bytes"
	"errors"

	"chameleondb/internal/baselines/shell"
	"chameleondb/internal/cceh"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// Config sizes the store.
type Config struct {
	// Stripes is the number of independent CCEH tables (power of two),
	// approximating CCEH's fine-grained segment locking.
	Stripes int
	// InitialDepth is each stripe's initial extendible-hashing depth.
	InitialDepth uint8
	ArenaBytes   int64
	LogBytes     int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Stripes: 64, InitialDepth: 1, ArenaBytes: 2 << 30, LogBytes: 1 << 30}
}

type stripe struct {
	shell.Lane
	t *cceh.Table
}

// Store is a Pmem-Hash (CCEH) instance.
type Store struct {
	*shell.Store
	log *wlog.Log

	stripes []*stripe

	recoverNs int64
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a Pmem-Hash store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a Pmem-Hash store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		return nil, errors.New("pmemhash: Stripes must be a power of two")
	}
	sh := shell.New("Pmem-Hash", "pmemhash", dev, cfg.ArenaBytes)
	log, err := wlog.New(sh.Arena, cfg.LogBytes)
	if err != nil {
		return nil, err
	}
	s := &Store{Store: sh, log: log}
	obs.RegisterLog(s.Registry(), log)
	s.stripes = make([]*stripe, cfg.Stripes)
	for i := range s.stripes {
		t, err := cceh.New(sh.Arena, cfg.InitialDepth)
		if err != nil {
			return nil, err
		}
		s.stripes[i] = &stripe{t: t}
	}
	return s, nil
}

// DRAMFootprint implements kvstore.Store: CCEH keeps its directory and
// per-segment bookkeeping volatile; the slots themselves are in Pmem.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, st := range s.stripes {
		total += st.t.DRAMFootprint()
	}
	return total
}

func (s *Store) stripeFor(h uint64) *stripe {
	// Stripe selection uses middle bits: CCEH's directory consumes the top
	// bits for extendible addressing and the segment slot position uses the
	// low bits, so striping must not correlate with either.
	return s.stripes[(h>>16)&uint64(len(s.stripes)-1)]
}

// Crash implements kvstore.Store. The CCEH segments and directory copy are
// persistent; the in-DRAM directory survives reconstruction (modeled below
// in Recover as a charged scan). Index slots persisted ahead of unflushed
// log entries become dangling and read as misses — the acknowledged-but-
// unbatched window every log-structured store here shares.
func (s *Store) Crash() {
	s.Store.Crash()
	for _, st := range s.stripes {
		st.Lane.Reset()
	}
}

// Recover implements kvstore.Store: reload the persisted directory and
// validate segment heads — cheap, which is why Pmem-Hash restarts fast.
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	for _, st := range s.stripes {
		// Directory copy read (sequential) plus one head probe per segment.
		s.Dev.ReadSeq(c, 0, int64(st.t.DirSize())*8)
		for i := 0; i < st.t.DirSize(); i++ {
			s.Dev.ReadRandom(c, 0, 64)
		}
	}
	s.Recovered()
	s.recoverNs = c.Now() - start
	return nil
}

// RecoverTime reports the virtual duration of the last Recover.
func (s *Store) RecoverTime() int64 { return s.recoverNs }

// Session is a per-worker handle.
type Session struct {
	store *Store
	clock *simclock.Clock
	ap    *wlog.Appender
}

var _ kvstore.Session = (*Session)(nil)

// NewSession implements kvstore.Store.
func (s *Store) NewSession(c *simclock.Clock) kvstore.Session {
	return &Session{store: s, clock: c, ap: s.log.NewAppender()}
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
	st := se.store.stripeFor(h)
	var err error
	st.Do(c, func() {
		// Individual persisted writes, no batching (Section 3.3's
		// explanation of Pmem-Hash's put latency).
		var lsn int64
		if lsn, err = se.ap.AppendSync(c, key, value, flags); err != nil {
			return
		}
		if flags&wlog.FlagTombstone != 0 {
			st.t.Delete(c, h)
			return
		}
		err = st.t.Insert(c, h, uint64(lsn))
	})
	if err == nil {
		se.store.Ops.CountWrite(flags&wlog.FlagTombstone != 0)
	}
	return err
}

// Put implements kvstore.Session.
func (se *Session) Put(key, value []byte) error { return se.write(key, value, 0) }

// Delete implements kvstore.Session.
func (se *Session) Delete(key []byte) error { return se.write(key, nil, wlog.FlagTombstone) }

// Get implements kvstore.Session: directory lookup, segment probe in Pmem,
// then the log read.
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	if err := se.store.Err(); err != nil {
		return nil, false, err
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	st := se.store.stripeFor(h)
	var ref uint64
	var ok bool
	st.Do(c, func() { ref, ok = st.t.Get(c, h) })
	if !ok {
		se.store.Ops.CountGet(false)
		return nil, false, nil
	}
	e, err := se.store.log.Read(c, int64(ref))
	if err != nil {
		// Dangling slot: the index persisted ahead of a log entry that a
		// crash erased. Treat as missing.
		se.store.Ops.CountGet(false)
		return nil, false, nil
	}
	if !bytes.Equal(e.Key, key) {
		se.store.Ops.CountGet(false)
		return nil, false, nil
	}
	val := make([]byte, len(e.Value))
	copy(val, e.Value)
	se.store.Ops.CountGet(true)
	return val, true, nil
}

// Flush implements kvstore.Session: Pmem-Hash has no write buffer (every
// put is already persisted), so only the appender chunk seal remains.
func (se *Session) Flush() error {
	if err := se.store.Err(); err != nil {
		return err
	}
	return se.ap.Flush(se.clock)
}
