// Package shell is what the hand-written baseline stores share and none of
// their designs is about: the device, arena and metrics plumbing, the gate
// between Crash and Recover, the lane (a lock booked on a virtual-time
// timeline), the one Session all four serve through, and the leveled part
// below L0 that NoveLSM and MatrixKV share. Each baseline embeds a Store and
// keeps only its design: its index (its locked write and its lookup), its
// append mode, its recovery, its stripe mapping if it has one and what its
// Crash loses. The paper compares stores that differ in their index only
// (Sections 3.2 and 3.7); here that is also how the code is cut.
package shell

import (
	"errors"
	"sync"

	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// ErrCrashed is returned between Crash and Recover.
var ErrCrashed = errors.New("store has crashed; call Recover first")

// Store is the shell a baseline embeds: its name, device, arena and metrics
// registry, with the generic op and device counters registered.
type Store struct {
	name  string
	Dev   *device.Device
	Arena *pmem.Arena
	Ops   obs.OpCounters
	reg   *obs.Registry

	log    *wlog.Log
	write  WriteFunc
	lookup LookupFunc

	mu        sync.Mutex
	crashed   bool
	recoverNs int64
}

// New builds the shell of the store called name on dev, with an arena of
// arenaBytes and a metrics registry called registry.
func New(name, registry string, dev *device.Device, arenaBytes int64) *Store {
	s := &Store{name: name, Dev: dev, Arena: pmem.NewArena(dev, arenaBytes), reg: obs.NewRegistry(registry)}
	s.Ops.Register(s.reg)
	obs.RegisterDevice(s.reg, dev)
	return s
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return s.name }

// DeviceStats implements kvstore.Store.
func (s *Store) DeviceStats() device.Stats { return s.Dev.Stats() }

// Device exposes the simulated device (the bench harness tunes its
// contention model per thread count).
func (s *Store) Device() *device.Device { return s.Dev }

// Registry returns the store's metrics registry.
func (s *Store) Registry() *obs.Registry { return s.reg }

// Close implements kvstore.Store.
func (s *Store) Close() error { return nil }

// Err returns ErrCrashed between Crash and Recover, nil otherwise.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

// Crash closes the gate, drops every byte the arena did not persist and
// resets the device timelines. The baseline's own Crash then drops what its
// design keeps only in DRAM.
func (s *Store) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.Arena.Crash()
	s.Dev.ResetTimelines()
}

// Recovered opens the gate again and records how long the Recover that
// began at start took; a baseline's Recover calls it last.
func (s *Store) Recovered(c *simclock.Clock, start int64) {
	s.mu.Lock()
	s.crashed = false
	s.mu.Unlock()
	s.recoverNs = c.Now() - start
}

// RecoverTime reports the virtual duration of the last Recover.
func (s *Store) RecoverTime() int64 { return s.recoverNs }

// WriteFunc applies one write of key, whose hash h the session has charged,
// through the baseline's index under its lock: a put, or with
// wlog.FlagTombstone in flags a delete. ap is the session's appender on the
// store's log, nil when the store has none.
type WriteFunc func(c *simclock.Clock, ap *wlog.Appender, h uint64, key, value []byte, flags uint16) error

// LookupFunc finds key, whose hash h the session has charged, through the
// baseline's index and returns a copy of its value.
type LookupFunc func(c *simclock.Clock, h uint64, key []byte) ([]byte, bool, error)

// Serve hands the shell the baseline's write and lookup, and its log (nil
// for a store without one). It must be called before the first NewSession.
func (s *Store) Serve(log *wlog.Log, write WriteFunc, lookup LookupFunc) {
	s.log, s.write, s.lookup = log, write, lookup
	if log != nil {
		obs.RegisterLog(s.reg, log)
	}
}

// Session is the one kvstore.Session of every hand-written baseline: the
// crash gate, the key hash, op counting and the appender's flush around the
// baseline's own write and lookup.
type Session struct {
	s  *Store
	c  *simclock.Clock
	ap *wlog.Appender
}

var _ kvstore.Session = (*Session)(nil)

// NewSession implements kvstore.Store.
func (s *Store) NewSession(c *simclock.Clock) kvstore.Session {
	se := &Session{s: s, c: c}
	if s.log != nil {
		se.ap = s.log.NewAppender()
	}
	return se
}

// Clock implements kvstore.Session.
func (se *Session) Clock() *simclock.Clock { return se.c }

func (se *Session) write(key, value []byte, flags uint16) error {
	if err := se.s.Err(); err != nil {
		return err
	}
	err := se.s.write(se.c, se.ap, Hash(se.c, key), key, value, flags)
	if err == nil {
		se.s.Ops.CountWrite(flags&wlog.FlagTombstone != 0)
	}
	return err
}

// Put implements kvstore.Session.
func (se *Session) Put(key, value []byte) error { return se.write(key, value, 0) }

// Delete implements kvstore.Session.
func (se *Session) Delete(key []byte) error { return se.write(key, nil, wlog.FlagTombstone) }

// Get implements kvstore.Session.
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	if err := se.s.Err(); err != nil {
		return nil, false, err
	}
	v, ok, err := se.s.lookup(se.c, Hash(se.c, key), key)
	se.s.Ops.CountGet(ok)
	return v, ok, err
}

// Flush implements kvstore.Session: it seals the session's appender chunk.
// A store without a log buffers nothing, so only the gate remains.
func (se *Session) Flush() error {
	if err := se.s.Err(); err != nil {
		return err
	}
	if se.ap == nil {
		return nil
	}
	return se.ap.Flush(se.c)
}

// Hash charges and computes the 64-bit hash of key that every baseline
// indexes by.
func Hash(c *simclock.Clock, key []byte) uint64 {
	c.Advance(device.CostHash64)
	return xhash.Sum64(key)
}

// Lane is a critical section: a mutex plus the timeline that books how long
// the lock was held, so workers' virtual clocks serialize on it the way their
// threads would. Pmem-Hash and Dram-Hash hold one per stripe; NoveLSM and
// MatrixKV hold one for the whole store. Code that touches the guarded state
// without booking the lane (a footprint read, recovery) takes the mutex
// directly.
type Lane struct {
	sync.Mutex
	tl simclock.Timeline
}

// Do runs fn under the lock, books the virtual time fn took on the timeline
// and advances c to the end of that reservation.
func (l *Lane) Do(c *simclock.Clock, fn func()) {
	l.Lock()
	start := c.Now()
	fn()
	dur := c.Now() - start
	l.Unlock()
	c.AdvanceTo(l.tl.Reserve(start, dur))
}

// Reset clears the timeline; only safe while no Do is in flight (Crash).
func (l *Lane) Reset() { l.tl.Reset() }
