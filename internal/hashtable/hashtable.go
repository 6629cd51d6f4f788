// Package hashtable implements the fixed-size linear-probing hash tables at
// the heart of ChameleonDB (Section 2.1/2.5): the in-DRAM MemTable and ABI
// use Mem; the immutable persisted sub-level tables and last-level table use
// PmemTable. Both share the 16-byte slot format {key hash, reference}, where
// the reference is a storage-log LSN with a tombstone bit.
//
// Tables are deliberately not extendable: ChameleonDB avoids rehashing by
// bounding each table's load factor at build time (Randomized Load Factors,
// Section 2.5) and relying on compaction, not expansion, to make room. The
// one table that grows, the ABI, is copied by its owner into a fresh, larger
// Mem; none is resized in place.
//
// A table's capacity is a power of two or any whole number of 256 B lines
// (FitCapacity). Every Mem, and every power-of-two PmemTable, is linear
// probing placed by one rule (placement). MemTables, staging tables and pins
// are powers of two (NewMem); the ABI takes whole lines (NewFittedMem). A
// PmemTable of whole lines that is not a power of two — a fitted persisted
// table — is built once, so its builder may choose where each entry goes: it
// is a two-choice table, where a probe reads at most two lines (PmemTable);
// FitTwoChoice sizes one.
package hashtable

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
)

// TombstoneBit marks a deleted key in a slot reference.
const TombstoneBit = uint64(1) << 63

// SlotSize is the on-media size of one slot in bytes.
const SlotSize = 16

// Slot is one index entry. Ref == 0 means the slot is empty (LSN 0 is
// reserved by the pmem arena).
type Slot struct {
	Hash uint64
	Ref  uint64
}

// Tombstone reports whether the slot marks a deletion.
func (s Slot) Tombstone() bool { return s.Ref&TombstoneBit != 0 }

// LSN returns the storage-log position the slot references.
func (s Slot) LSN() int64 { return int64(s.Ref &^ TombstoneBit) }

// MakeRef builds a slot reference from an LSN and tombstone flag.
func MakeRef(lsn int64, tombstone bool) uint64 {
	r := uint64(lsn)
	if tombstone {
		r |= TombstoneBit
	}
	return r
}

// placement is the linear-probing geometry of every Mem and of power-of-two
// PmemTables. A power-of-two table places hash h at h & (cap-1); a
// line-granular Mem reduces the low 32 hash bits onto [0, cap) with a
// multiply-shift (the shard router consumes the hash from the top, so those
// bits are unspent). Either way the probe wraps at cap.
type placement struct {
	cap  int    // slots
	mask uint64 // cap-1 when cap is a power of two, else 0
}

func newPlacement(capacity int) placement {
	p := placement{cap: capacity}
	if capacity&(capacity-1) == 0 {
		p.mask = uint64(capacity - 1)
	}
	return p
}

// home returns the slot a probe for hash h starts at.
func (p placement) home(h uint64) uint64 {
	if p.mask != 0 {
		return h & p.mask
	}
	return uint64(uint32(h)) * uint64(p.cap) >> 32
}

// next returns the slot a probe visits after idx.
func (p placement) next(idx uint64) uint64 {
	if idx++; idx == uint64(p.cap) {
		return 0
	}
	return idx
}

// memSlot is one in-DRAM slot, split into paired atomics so a single writer
// and many readers can share the table without a lock. Publication ordering
// carries the consistency: a writer filling an empty slot stores the hash
// first and the reference second, and ref == 0 still means empty, so a reader
// that observes a non-zero ref is guaranteed (Go atomics are sequentially
// consistent) to also observe the matching hash.
type memSlot struct {
	hash atomic.Uint64
	ref  atomic.Uint64
}

// Mem is a fixed-capacity linear-probing hash table in DRAM. It is the
// MemTable and ABI building block.
//
// Concurrency contract: at most one writer at a time (ChameleonDB serializes
// shard mutation under the shard lock), any number of concurrent readers via
// Get. Slot updates are safe through publication ordering alone; Reset — the
// one operation that recycles slots, where a reader could pair an old hash
// with a new reference — is guarded by a table-level seqlock: seq is odd
// while a Reset is in progress and readers retry probes that straddle one.
// Iterate, Clone, and the size accessors remain writer-side operations.
type Mem struct {
	seq   atomic.Uint64
	slots []memSlot
	placement
	count int

	// resetHook, when set, runs inside Reset's write-side critical section
	// (seq odd, slots partially cleared). Tests use it to force a reader to
	// interleave with a Reset and exercise the torn-read retry path.
	resetHook func()
}

// NewMem creates a table with the given capacity (rounded up to a power of
// two, minimum 8).
func NewMem(capacity int) *Mem {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return newMem(c)
}

// NewFittedMem creates a table of FitCapacity(capacity) slots — a power of
// two or a whole number of lines, linear probing either way — so a table
// sized to what it holds need not round up to the next power of two.
func NewFittedMem(capacity int) *Mem { return newMem(FitCapacity(capacity)) }

func newMem(capacity int) *Mem {
	return &Mem{slots: make([]memSlot, capacity), placement: newPlacement(capacity)}
}

// SetResetHook installs fn to run inside every subsequent Reset, after the
// seqlock is taken and the first slot has been cleared. Testing hook; not for
// store code.
func (m *Mem) SetResetHook(fn func()) { m.resetHook = fn }

// Cap returns the slot capacity.
func (m *Mem) Cap() int { return len(m.slots) }

// Len returns the number of occupied slots (tombstones count: they occupy
// index space until compacted away).
func (m *Mem) Len() int { return m.count }

// LoadFactor returns occupied/capacity.
func (m *Mem) LoadFactor() float64 { return float64(m.count) / float64(len(m.slots)) }

// DRAMFootprint returns the table's memory footprint in bytes.
func (m *Mem) DRAMFootprint() int64 { return int64(len(m.slots)) * SlotSize }

// Insert places or updates the entry for hash h, returning the number of
// slots probed. ok is false when the table is completely full and h is not
// present (callers must flush before that happens; load-factor thresholds
// keep them far from it). Writer-side: callers serialize Insert against all
// other mutation.
func (m *Mem) Insert(h uint64, ref uint64) (probes int, ok bool) {
	idx := m.home(h)
	for i := 0; i < len(m.slots); i++ {
		probes++
		s := &m.slots[idx]
		if s.ref.Load() == 0 {
			// New slot: publish the hash before the reference so a
			// concurrent reader never pairs a live ref with a stale hash.
			s.hash.Store(h)
			s.ref.Store(ref)
			m.count++
			return probes, true
		}
		if s.hash.Load() == h {
			s.ref.Store(ref)
			return probes, true
		}
		idx = m.next(idx)
	}
	return probes, false
}

// InsertIfAbsent places the entry only if hash h is not already present, so
// merges that iterate newest-first keep the newer version. Like Insert, it
// returns the slots probed, and ok is false only when h is absent and the
// table is completely full. Writer-side.
func (m *Mem) InsertIfAbsent(h uint64, ref uint64) (probes int, ok bool) {
	idx := m.home(h)
	for i := 0; i < len(m.slots); i++ {
		probes++
		s := &m.slots[idx]
		if s.ref.Load() == 0 {
			s.hash.Store(h)
			s.ref.Store(ref)
			m.count++
			return probes, true
		}
		if s.hash.Load() == h {
			return probes, true
		}
		idx = m.next(idx)
	}
	return probes, false
}

// getSpinBudget bounds how many failed seqlock rounds Get spins through
// before yielding the processor to let the interfering Reset finish.
const getSpinBudget = 64

// Get returns the reference for hash h. probes reports the number of slots
// examined, which callers convert into timing charges.
//
// Get is safe to call concurrently with the single writer. A probe that
// overlaps a Reset could pair a pre-Reset hash with a post-Reset reference
// from a recycled slot; the seqlock detects that — seq is odd during a Reset
// and bumped again after — and the probe retries. Retries are bounded by a
// spin budget, after which the reader yields; a Reset clears a few hundred
// slots, so the window is a handful of retries at most.
func (m *Mem) Get(h uint64) (ref uint64, probes int, ok bool) {
	for spin := 0; ; spin++ {
		s0 := m.seq.Load()
		if s0&1 == 0 {
			ref, probes, ok = m.probe(h)
			if m.seq.Load() == s0 {
				return ref, probes, ok
			}
		}
		if spin >= getSpinBudget {
			runtime.Gosched()
		}
	}
}

// probe is the raw linear probe. Readers must wrap it in seqlock validation
// (Get); the writer may call it directly.
func (m *Mem) probe(h uint64) (ref uint64, probes int, ok bool) {
	idx := m.home(h)
	for i := 0; i < len(m.slots); i++ {
		s := &m.slots[idx]
		probes++
		r := s.ref.Load()
		if r == 0 {
			return 0, probes, false
		}
		if s.hash.Load() == h {
			return r, probes, true
		}
		idx = m.next(idx)
	}
	return 0, probes, false
}

// Iterate calls fn for every occupied slot. Iteration order is table order,
// which is meaningless; callers needing recency order track it themselves.
// Writer-side: concurrent Resets would tear the iteration.
func (m *Mem) Iterate(fn func(Slot) bool) {
	for i := range m.slots {
		s := &m.slots[i]
		if r := s.ref.Load(); r != 0 {
			if !fn(Slot{Hash: s.hash.Load(), Ref: r}) {
				return
			}
		}
	}
}

// Reset clears the table for reuse without reallocating. Writer-side; the
// seqlock makes concurrent readers retry probes that straddle the clear.
//
// ChameleonDB's core no longer Resets tables that a published shard view may
// still reference — those are swapped for fresh tables instead — but shared
// tables mutated in place (the ABI) and single-owner baselines still recycle
// through Reset.
func (m *Mem) Reset() {
	m.seq.Add(1) // odd: reset in progress
	for i := range m.slots {
		m.slots[i].ref.Store(0)
		m.slots[i].hash.Store(0)
		if i == 0 && m.resetHook != nil {
			m.resetHook()
		}
	}
	m.count = 0
	m.seq.Add(1) // even: quiescent
}

// Clear empties a table that no reader can reach — a compaction's staging
// table between uses — with one plain memory clear, several times cheaper
// than Reset's per-slot atomic stores. Tables shared with readers must go
// through Reset.
func (m *Mem) Clear() {
	clear(m.slots)
	m.count = 0
}

// Clone returns a deep copy, used by PinK-style DRAM pinning. Writer-side.
func (m *Mem) Clone() *Mem {
	c := newMem(len(m.slots))
	c.count = m.count
	for i := range m.slots {
		c.slots[i].hash.Store(m.slots[i].hash.Load())
		c.slots[i].ref.Store(m.slots[i].ref.Load())
	}
	return c
}

// encodeSlot/decodeSlot define the persisted slot layout (little endian).
func encodeSlot(b []byte, s Slot) {
	binary.LittleEndian.PutUint64(b[0:8], s.Hash)
	binary.LittleEndian.PutUint64(b[8:16], s.Ref)
}

func decodeSlot(b []byte) Slot {
	return Slot{
		Hash: binary.LittleEndian.Uint64(b[0:8]),
		Ref:  binary.LittleEndian.Uint64(b[8:16]),
	}
}
