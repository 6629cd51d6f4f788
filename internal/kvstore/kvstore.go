// Package kvstore defines the interface every store in the evaluation
// implements — ChameleonDB and the Pmem-Hash / Dram-Hash / Pmem-LSM /
// NoveLSM / MatrixKV baselines — so the benchmark harness and the oracle
// test suite can drive them uniformly.
package kvstore

import (
	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

// Session is a per-worker handle. Each benchmark thread (and each background
// compaction worker) owns one session; the session's clock accumulates the
// virtual time of everything the worker does. Sessions are not safe for
// concurrent use; different sessions of the same store are.
//
// Buffer ownership: Put and Delete must not retain key or value after they
// return — the caller may reuse or overwrite the backing arrays immediately
// (the RESP server passes spans of a per-connection read buffer straight
// through). Stores that keep data copy it into their own storage before
// returning.
type Session interface {
	// Put inserts or updates a key.
	Put(key, value []byte) error
	// Get returns the value for key, and whether it exists.
	Get(key []byte) ([]byte, bool, error)
	// Delete removes a key (a tombstone in log-structured stores).
	Delete(key []byte) error
	// Flush drains any DRAM write buffers to the device (log batches,
	// unsealed chunks), making acknowledged writes durable.
	Flush() error
	// Clock returns the worker's virtual clock.
	Clock() *simclock.Clock
}

// KV is one key/value pair produced by a scan, in hash order.
type KV struct {
	Key   []byte
	Value []byte
}

// Snapshot is a point-in-time, immutable view of a store. Scan pages through
// it with a resumable cursor: pass 0 to start, feed the returned cursor back
// in, and stop when it returns 0. A snapshot pins store resources (epoch
// reclamation, arena space) until Release is called. Not safe for concurrent
// use.
type Snapshot interface {
	Scan(cursor uint64, limit int) ([]KV, uint64, error)
	Release()
}

// Scanner is an optional Session capability: stores with sorted or hashed
// range iteration implement it. Scan is the one-shot form (each call captures
// its own per-shard view, Redis-SCAN-style guarantees); Snapshot returns a
// stable view for multi-call iteration.
type Scanner interface {
	Scan(cursor uint64, limit int) ([]KV, uint64, error)
	Snapshot() (Snapshot, error)
}

// ValueReader is an optional Session capability: an allocation-free read. The
// value is appended to dst (strconv.Append style) and the extended slice
// returned, so a caller that reuses one buffer across gets allocates only when
// a value outgrows it. On a miss or error the returned slice is dst unchanged.
// The result never aliases store-internal memory — it is a copy the caller
// owns, like Get's.
type ValueReader interface {
	GetInto(key, dst []byte) ([]byte, bool, error)
}

// BatchWriter is an optional Session capability: n independent puts applied in
// one call so the store can amortize per-operation overhead (ChameleonDB
// groups keys by destination shard and applies each group under a single
// shard-lock acquisition). Semantics match n sequential Puts: writes to the
// same key keep their relative order, and on error an arbitrary subset of the
// batch may be applied — callers that need exactly-sequential failure
// semantics use Put. keys and values must be parallel slices; like Put,
// neither is retained after the call returns.
type BatchWriter interface {
	PutBatch(keys, values [][]byte) error
}

// ConditionalDeleter is an optional Session capability: a delete that runs
// probe and tombstone atomically under the store's write path and reports
// whether the key existed. Fixes the probe-then-delete TOCTOU a Get+Delete
// pair has across sessions.
type ConditionalDeleter interface {
	DeleteIfPresent(key []byte) (bool, error)
}

// Incrementer is an optional Session capability: an atomic read-modify-write
// of a decimal integer value (Redis INCR/INCRBY semantics).
type Incrementer interface {
	IncrBy(key []byte, delta int64) (int64, error)
}

// ServingSession is the session contract of the serving stack — the RESP
// server, the hot-key cache interposer and the chameleondb facade hold this
// one type and call its methods directly, so each command has exactly one
// implementation. Release detaches the session from the store (a gone client
// pins neither the recovery watermark nor table reclamation). ChameleonDB's
// sessions implement it; a store handed to the serving stack must too.
type ServingSession interface {
	Session
	ValueReader
	BatchWriter
	ConditionalDeleter
	Incrementer
	Scanner
	Release() error
}

// Store is a key-value store under evaluation.
type Store interface {
	// Name identifies the store in reports ("ChameleonDB", "Pmem-Hash", ...).
	Name() string
	// NewSession creates a worker handle bound to clock c.
	NewSession(c *simclock.Clock) Session
	// DRAMFootprint reports the store's volatile memory use in bytes
	// (Table 4's DRAM Footprint column).
	DRAMFootprint() int64
	// DeviceStats reports the persistent device's media counters.
	DeviceStats() device.Stats
	// Crash simulates a power failure: all volatile state (DRAM indexes,
	// unflushed buffers) is lost; only persisted data survives. The caller
	// must have quiesced all sessions.
	Crash()
	// Recover rebuilds the store after Crash until it can serve requests.
	// The recovery work is charged to c; the elapsed virtual time is the
	// restart time of Table 4.
	Recover(c *simclock.Clock) error
	// Close releases resources.
	Close() error
}
