package hotcache

import (
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// Wrapped is a kvstore.Store whose sessions read through a hot-key cache and
// invalidate it on every write. Wrapping the store (rather than sprinkling
// cache calls over the server's command dispatch) gives ONE invalidation
// surface: every session handed out — wire connections, the crash-sweep
// driver, the embedded facade — goes through the same read/write interposer,
// so a write path cannot forget to invalidate.
//
// Invalidation ordering: the engine write is applied first, then the cache
// entry is dropped, then the wrapped call returns (and the server acks). A
// reader that misses after the ack therefore re-reads the engine and sees the
// new value; a reader whose miss-fill was in flight across the write is
// rejected by the version gate (see Cache.Add).
//
// The cache is volatile: Crash empties it, so post-recovery reads start cold
// and can never observe pre-crash DRAM state.
type Wrapped struct {
	inner kvstore.Store
	cache *Cache
}

// Wrap interposes c between callers and st. A nil cache returns st unchanged,
// so call sites need no "is caching on" branch.
func Wrap(st kvstore.Store, c *Cache) kvstore.Store {
	if c == nil {
		return st
	}
	return &Wrapped{inner: st, cache: c}
}

var _ kvstore.Store = (*Wrapped)(nil)

// Cache returns the interposed cache.
func (w *Wrapped) Cache() *Cache { return w.cache }

// Name implements kvstore.Store.
func (w *Wrapped) Name() string { return w.inner.Name() + "+hotcache" }

// NewSession implements kvstore.Store; the session is the actual interposer.
// The wrapped store's sessions must implement kvstore.ServingSession.
func (w *Wrapped) NewSession(c *simclock.Clock) kvstore.Session {
	return &session{inner: w.inner.NewSession(c).(kvstore.ServingSession), cache: w.cache}
}

// DRAMFootprint implements kvstore.Store: the cache's resident bytes are
// DRAM spend and are reported as such.
func (w *Wrapped) DRAMFootprint() int64 {
	return w.inner.DRAMFootprint() + w.cache.Stats().Bytes
}

// DeviceStats implements kvstore.Store.
func (w *Wrapped) DeviceStats() device.Stats { return w.inner.DeviceStats() }

// Crash implements kvstore.Store. The cache is volatile state: a power
// failure loses it, so recovery starts cold.
func (w *Wrapped) Crash() {
	w.cache.InvalidateAll()
	w.inner.Crash()
}

// Recover implements kvstore.Store.
func (w *Wrapped) Recover(c *simclock.Clock) error { return w.inner.Recover(c) }

// Close implements kvstore.Store.
func (w *Wrapped) Close() error { return w.inner.Close() }

// Device forwards the crash-sweep device hook when present.
func (w *Wrapped) Device() *device.Device {
	if d, ok := w.inner.(interface{ Device() *device.Device }); ok {
		return d.Device()
	}
	return nil
}

// Log forwards the server's group-commit log hook when present.
func (w *Wrapped) Log() *wlog.Log {
	if l, ok := w.inner.(interface{ Log() *wlog.Log }); ok {
		return l.Log()
	}
	return nil
}

// Registry implements obs.Provider when the inner store does, with the
// cache's own counters registered alongside the store's.
func (w *Wrapped) Registry() *obs.Registry {
	if p, ok := w.inner.(obs.Provider); ok {
		return p.Registry()
	}
	return nil
}

// VerifyIntegrity forwards the sweep's integrity hook when present.
func (w *Wrapped) VerifyIntegrity(c *simclock.Clock) error {
	if v, ok := w.inner.(interface {
		VerifyIntegrity(*simclock.Clock) error
	}); ok {
		return v.VerifyIntegrity(c)
	}
	return nil
}

// FlushAll forwards the maintenance hook when present.
func (w *Wrapped) FlushAll(c *simclock.Clock) error {
	if f, ok := w.inner.(interface {
		FlushAll(*simclock.Clock) error
	}); ok {
		return f.FlushAll(c)
	}
	return nil
}

// DumpABIs forwards the maintenance hook when present.
func (w *Wrapped) DumpABIs(c *simclock.Clock) error {
	if d, ok := w.inner.(interface {
		DumpABIs(*simclock.Clock) error
	}); ok {
		return d.DumpABIs(c)
	}
	return nil
}

// CompactLog forwards the maintenance hook when present.
func (w *Wrapped) CompactLog(c *simclock.Clock, budget int64) (int64, error) {
	if g, ok := w.inner.(interface {
		CompactLog(*simclock.Clock, int64) (int64, error)
	}); ok {
		return g.CompactLog(c, budget)
	}
	return 0, nil
}

// session interposes the cache on one worker's reads and writes. Like the
// sessions it wraps, it is not safe for concurrent use — but the cache is
// shared and concurrency-safe, so different sessions coordinate only through
// it.
type session struct {
	inner kvstore.ServingSession
	cache *Cache
}

var _ kvstore.ServingSession = (*session)(nil)

// Put implements kvstore.Session: engine write, then invalidate, then return
// (the caller acks after we return, so no stale hit can survive an ack).
func (s *session) Put(key, value []byte) error {
	if err := s.inner.Put(key, value); err != nil {
		return err
	}
	s.cache.Invalidate(key)
	s.cache.Touch(key)
	return nil
}

// Get implements kvstore.Session: cache first, engine on miss, version-gated
// fill. The token is taken by the cache-miss lookup itself — before the
// engine read — so an invalidation racing the fill always wins.
func (s *session) Get(key []byte) ([]byte, bool, error) {
	val, ok, token := s.cache.Get(key, nil)
	if ok {
		return val, true, nil
	}
	return s.getFill(key, nil, token)
}

// GetInto implements kvstore.ValueReader with the same cache-first protocol.
func (s *session) GetInto(key, dst []byte) ([]byte, bool, error) {
	val, ok, token := s.cache.Get(key, dst)
	if ok {
		return val, true, nil
	}
	return s.getFill(key, dst, token)
}

// getFill is the shared miss path: read the engine and offer the result for
// admission under the shard version captured by the missed lookup.
func (s *session) getFill(key, dst []byte, token uint64) ([]byte, bool, error) {
	val, ok, err := s.inner.GetInto(key, dst)
	if err != nil || !ok {
		return val, ok, err
	}
	s.cache.Add(key, valueBytes(val, dst), token)
	return val, ok, nil
}

// valueBytes strips the dst prefix the append-style read carries, so only the
// value itself is cached.
func valueBytes(val, dst []byte) []byte { return val[len(dst):] }

// Delete implements kvstore.Session: engine first, then invalidate.
func (s *session) Delete(key []byte) error {
	if err := s.inner.Delete(key); err != nil {
		return err
	}
	s.cache.Invalidate(key)
	return nil
}

// DeleteIfPresent implements kvstore.ConditionalDeleter. The engine's answer
// is authoritative for existence (DEL's reply count); the cache entry is
// dropped either way — a cached entry for an absent key cannot exist, but the
// invalidation also closes any in-flight fill race.
func (s *session) DeleteIfPresent(key []byte) (bool, error) {
	existed, err := s.inner.DeleteIfPresent(key)
	if err != nil {
		return existed, err
	}
	s.cache.Invalidate(key)
	return existed, nil
}

// IncrBy implements kvstore.Incrementer: a read-modify-write is a write.
func (s *session) IncrBy(key []byte, delta int64) (int64, error) {
	n, err := s.inner.IncrBy(key, delta)
	if err != nil {
		return n, err
	}
	s.cache.Invalidate(key)
	return n, nil
}

// PutBatch implements kvstore.BatchWriter. On error a subset may have been
// applied (the BatchWriter contract), so every key is invalidated regardless
// — over-invalidation is always safe.
func (s *session) PutBatch(keys, values [][]byte) error {
	err := s.inner.PutBatch(keys, values)
	for _, k := range keys {
		s.cache.Invalidate(k)
	}
	if err != nil {
		return err
	}
	for _, k := range keys {
		s.cache.Touch(k)
	}
	return nil
}

// Scan implements kvstore.Scanner, uncached: scans read the engine's
// authoritative view directly (and, thanks to TinyLFU admission, scan traffic
// also cannot flush the hot set out of the cache).
func (s *session) Scan(cursor uint64, limit int) ([]kvstore.KV, uint64, error) {
	return s.inner.Scan(cursor, limit)
}

// Snapshot implements kvstore.Scanner, uncached for the same reason.
func (s *session) Snapshot() (kvstore.Snapshot, error) {
	return s.inner.Snapshot()
}

// Flush implements kvstore.Session.
func (s *session) Flush() error { return s.inner.Flush() }

// Clock implements kvstore.Session.
func (s *session) Clock() *simclock.Clock { return s.inner.Clock() }

// Release implements kvstore.ServingSession.
func (s *session) Release() error { return s.inner.Release() }
