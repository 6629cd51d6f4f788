// Package shell is what the hand-written baseline stores share and none of
// their designs is about: the device, arena and metrics plumbing, the gate
// between Crash and Recover, and the lane — a stripe's lock booked on a
// virtual-time timeline. Each baseline embeds a Store and keeps only its
// design: its index, its append mode, its recovery, its stripe mapping and
// what its Crash loses. The paper compares stores that differ in their index
// only (Sections 3.2 and 3.7); here that is also how the code is cut.
package shell

import (
	"errors"
	"sync"

	"chameleondb/internal/device"
	"chameleondb/internal/obs"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
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

	mu      sync.Mutex
	crashed bool
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

// Recovered opens the gate again; a baseline's Recover calls it last.
func (s *Store) Recovered() {
	s.mu.Lock()
	s.crashed = false
	s.mu.Unlock()
}

// Lane is a stripe's critical section: its mutex plus the timeline that books
// how long the lock was held, so workers' virtual clocks serialize on the
// stripe the way their threads would. Code that touches the stripe without
// booking the lane (a footprint read, recovery) takes the mutex directly.
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
