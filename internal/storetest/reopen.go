package storetest

import (
	"fmt"

	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
)

// ReopenFunc cold-opens a store over the same durable directory the previous
// incarnation used, returning it in the crashed (pre-Recover) state. It is
// called after the previous store has been closed, so the backing files are
// free to reopen.
type ReopenFunc func() (kvstore.Store, error)

// Reopening wraps a store whose durable state lives outside the process (the
// file backend) and turns every Recover into a full restart: the current
// store is closed, the directory is reopened cold through reopen, and the
// fresh store recovers from what the files actually hold. Running the crash
// sweep through this wrapper therefore checks the real restart path — host
// metadata persistence, manifest reattachment, allocator restore — under the
// exact same fault plans the in-process sweep uses, not just an in-process
// reload of the arena.
//
// Crash forwards to the inner store (the fault plan has already frozen the
// durable state; Crash only reloads the volatile image from it), and
// everything else proxies to the current incarnation.
type Reopening struct {
	inner  kvstore.Store
	reopen ReopenFunc
}

// NewReopening wraps st. reopen must open the same directory st writes to.
func NewReopening(st kvstore.Store, reopen ReopenFunc) *Reopening {
	return &Reopening{inner: st, reopen: reopen}
}

var _ kvstore.Store = (*Reopening)(nil)

// Name implements kvstore.Store.
func (r *Reopening) Name() string { return r.inner.Name() + "+reopen" }

// NewSession implements kvstore.Store against the current incarnation.
func (r *Reopening) NewSession(c *simclock.Clock) kvstore.Session { return r.inner.NewSession(c) }

// DRAMFootprint implements kvstore.Store.
func (r *Reopening) DRAMFootprint() int64 { return r.inner.DRAMFootprint() }

// DeviceStats implements kvstore.Store.
func (r *Reopening) DeviceStats() device.Stats { return r.inner.DeviceStats() }

// Device exposes the current incarnation's device model so the sweep can
// install fault plans.
func (r *Reopening) Device() *device.Device {
	return r.inner.(interface{ Device() *device.Device }).Device()
}

// Crash implements kvstore.Store: the volatile loss happens in-process; the
// restart happens at Recover.
func (r *Reopening) Crash() { r.inner.Crash() }

// Recover implements kvstore.Store as a real restart: close the dead
// incarnation (its backend releases the files without disturbing the durable
// state), reopen the directory cold, and let the fresh store recover from
// the files.
func (r *Reopening) Recover(c *simclock.Clock) error {
	if err := r.inner.Close(); err != nil {
		return fmt.Errorf("reopen: closing crashed store: %w", err)
	}
	st, err := r.reopen()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.inner = st
	return r.inner.Recover(c)
}

// Close implements kvstore.Store.
func (r *Reopening) Close() error { return r.inner.Close() }

// VerifyIntegrity forwards the sweep's integrity hook when the current
// incarnation has one.
func (r *Reopening) VerifyIntegrity(c *simclock.Clock) error {
	if v, ok := r.inner.(interface {
		VerifyIntegrity(*simclock.Clock) error
	}); ok {
		return v.VerifyIntegrity(c)
	}
	return nil
}

// FlushAll forwards the maintenance hook when present.
func (r *Reopening) FlushAll(c *simclock.Clock) error {
	if f, ok := r.inner.(interface {
		FlushAll(*simclock.Clock) error
	}); ok {
		return f.FlushAll(c)
	}
	return nil
}

// DumpABIs forwards the maintenance hook when present.
func (r *Reopening) DumpABIs(c *simclock.Clock) error {
	if d, ok := r.inner.(interface {
		DumpABIs(*simclock.Clock) error
	}); ok {
		return d.DumpABIs(c)
	}
	return nil
}

// CompactLog forwards the maintenance hook when present.
func (r *Reopening) CompactLog(c *simclock.Clock, budget int64) (int64, error) {
	if g, ok := r.inner.(interface {
		CompactLog(*simclock.Clock, int64) (int64, error)
	}); ok {
		return g.CompactLog(c, budget)
	}
	return 0, nil
}
