// Package hashtable implements the fixed-size hash tables at the heart of
// ChameleonDB (Section 2.1/2.5): the in-DRAM MemTable and ABI use Mem; the
// immutable persisted sub-level tables and last-level table use PmemTable.
// Both share the 16-byte slot format {key hash, reference}, where the
// reference is a storage-log LSN with a tombstone bit.
//
// Tables are deliberately not extendable: ChameleonDB avoids rehashing by
// bounding each table's load factor at build time (Randomized Load Factors,
// Section 2.5) and relying on compaction, not expansion, to make room. The
// one table that grows, the ABI, is copied by its owner into a fresh, larger
// Mem; none is resized in place.
//
// A table's capacity is a power of two or any whole number of 256 B lines
// (FitCapacity), and the capacity alone picks the layout. A power-of-two
// table, Mem or PmemTable, is linear probing from h & (cap-1) (placement):
// MemTables, staging tables and pins are powers of two (NewMem), and so is an
// ABI at its cap. Whole lines that are not a power of two make a two-choice
// table (twochoice.go), where every hash has two candidate buckets and a
// probe reads at most two: a fitted PmemTable's buckets are its 256 B lines
// and are placed once, at build; a fitted Mem — an ABI below its cap
// (NewFittedMem) — has 64 B buckets and places each entry as it is inserted,
// moving others under the seqlock when both of its buckets are full.
// FitTwoChoice sizes either.
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

// placement is the linear-probing geometry of power-of-two tables, Mem and
// PmemTable alike: a probe for hash h starts at h & (cap-1) and wraps at cap.
// A two-choice table keeps only its cap here.
type placement struct {
	cap  int    // slots
	mask uint64 // cap-1
}

func newPlacement(capacity int) placement {
	return placement{cap: capacity, mask: uint64(capacity - 1)}
}

// home returns the slot a probe for hash h starts at.
func (p placement) home(h uint64) uint64 { return h & p.mask }

// next returns the slot a probe visits after idx.
func (p placement) next(idx uint64) uint64 { return (idx + 1) & p.mask }

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

// Mem is a fixed-capacity hash table in DRAM: the MemTable and ABI building
// block. A power-of-two Mem is linear probing; any other capacity is a whole
// number of 256 B lines laid out two-choice in buckets of one 64 B cache line
// (memBucketSlots), so a probe touches at most two cache lines.
//
// Concurrency contract: at most one writer at a time (ChameleonDB serializes
// shard mutation under the shard lock), any number of concurrent readers via
// Get. Filling an empty slot and updating a reference are safe through
// publication ordering alone. The operations that rewrite occupied slots,
// where a reader could pair one entry's hash with another's reference, run
// inside a table-level seqlock: Reset, which recycles slots, and a
// two-choice insert's displacement, which moves entries between buckets. seq
// is odd while one is in progress and readers retry probes that straddle
// one. Iterate, Clone, and the size accessors remain writer-side operations.
type Mem struct {
	seq   atomic.Uint64
	slots []memSlot
	placement
	g     buckets // a two-choice table's buckets; n == 0 for linear probing
	count int
	moves int // inserts that displaced entries

	// writeHook, when set, runs inside the seqlock's write side (seq odd)
	// with slots torn: in Reset after the first slot is cleared, in a
	// displacement after each moved slot's hash is written and before its
	// reference is. Tests use it to force a reader into a Reset or a
	// displacement and exercise the torn-read retry path.
	writeHook func()
}

// memBucketSlots is a two-choice Mem's bucket: one 64 B DRAM cache line, the
// unit device.DRAMProbeCost charges a random access for.
const memBucketSlots = 4

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
// two, linear probing, or a whole number of lines, two-choice — so a table
// sized to what it holds need not round up to the next power of two.
func NewFittedMem(capacity int) *Mem { return newMem(FitCapacity(capacity)) }

func newMem(capacity int) *Mem {
	m := &Mem{slots: make([]memSlot, capacity), placement: newPlacement(capacity)}
	if twoChoice(capacity) {
		m.g = buckets{n: uint64(capacity / memBucketSlots), shift: 2}
	}
	return m
}

// SetWriteHook installs fn to run inside every subsequent Reset and
// displacement, with the seqlock taken and slots torn (see writeHook).
// Testing hook; not for store code.
func (m *Mem) SetWriteHook(fn func()) { m.writeHook = fn }

// TwoChoice reports whether the table is laid out in two-choice buckets:
// its capacity is whole lines, not a power of two.
func (m *Mem) TwoChoice() bool { return m.g.n != 0 }

// Displacements returns how many inserts into the table moved entries to
// make room. Writer-side.
func (m *Mem) Displacements() int { return m.moves }

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
// slots probed. ok is false when h is absent and finds no room: a
// linear-probing table is full, or a two-choice table's two buckets are full
// and no chain of moves frees one (callers take a larger table below their
// cap, and load-factor thresholds keep them far from either). Writer-side:
// callers serialize Insert against all other mutation.
func (m *Mem) Insert(h uint64, ref uint64) (probes int, ok bool) { return m.insert(h, ref, true) }

// InsertIfAbsent places the entry only if hash h is not already present, so
// merges that iterate newest-first keep the newer version. It returns what
// Insert does. Writer-side.
func (m *Mem) InsertIfAbsent(h uint64, ref uint64) (probes int, ok bool) {
	return m.insert(h, ref, false)
}

func (m *Mem) insert(h, ref uint64, update bool) (probes int, ok bool) {
	if m.g.n != 0 {
		return m.insertTwoChoice(h, ref, update)
	}
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
			if update {
				s.ref.Store(ref)
			}
			return probes, true
		}
		idx = m.next(idx)
	}
	return probes, false
}

// insertTwoChoice is insert in a two-choice table: h's first bucket, else
// its second, else a displacement under the seqlock. Each round of the
// displacement's search counts as one bucket's memBucketSlots probes: one
// cache line's random access (findMove).
func (m *Mem) insertTwoChoice(h, ref uint64, update bool) (probes int, ok bool) {
	b1, b2, sub := m.g.homes(h)
	s, r, probes := m.scanBucket(b1, sub, h)
	if s == nil {
		var p int
		s, r, p = m.scanBucket(b2, sub, h)
		probes += p
	}
	switch {
	case s == nil:
		var buf [maxHops]hop
		hops, at, slot, rounds, found := m.g.findMove(m, buf[:0], b1, b2)
		probes += rounds * memBucketSlots
		if !found {
			return probes, false
		}
		m.seq.Add(1) // odd: entries moving
		m.g.move(m, hops, at, slot, Slot{Hash: h, Ref: ref})
		m.seq.Add(1) // even: quiescent
		m.count++
		m.moves++
	case r == 0:
		s.hash.Store(h)
		s.ref.Store(ref)
		m.count++
	case update:
		s.ref.Store(ref)
	}
	return probes, true
}

// scanBucket probes bucket b of a two-choice table for h from slot sub,
// wrapping inside the bucket: it returns the slot holding h with its
// reference, or the first empty slot with reference 0, and a nil slot when
// the bucket is full without h.
func (m *Mem) scanBucket(b, sub, h uint64) (s *memSlot, ref uint64, probes int) {
	for i := uint64(0); i < memBucketSlots; i++ {
		s = &m.slots[b*memBucketSlots+(sub+i)%memBucketSlots]
		probes++
		if ref = s.ref.Load(); ref == 0 || s.hash.Load() == h {
			return s, ref, probes
		}
	}
	return nil, 0, probes
}

// slot, setSlot, full and add are a two-choice Mem as a displacement sees
// it (bucketImage). The moves run with seq odd.
func (m *Mem) slot(i uint64) Slot {
	return Slot{Hash: m.slots[i].hash.Load(), Ref: m.slots[i].ref.Load()}
}

func (m *Mem) setSlot(i uint64, s Slot) {
	m.slots[i].hash.Store(s.Hash)
	if m.writeHook != nil {
		m.writeHook()
	}
	m.slots[i].ref.Store(s.Ref)
}

func (m *Mem) full(b uint64) bool {
	for i := b * memBucketSlots; i < (b+1)*memBucketSlots; i++ {
		if m.slots[i].ref.Load() == 0 {
			return false
		}
	}
	return true
}

func (m *Mem) add(b, sub uint64, e Slot) {
	s, _, _ := m.scanBucket(b, sub, e.Hash)
	s.hash.Store(e.Hash)
	s.ref.Store(e.Ref)
}

// getSpinBudget bounds how many failed seqlock rounds Get spins through
// before yielding the processor to let the interfering writer finish.
const getSpinBudget = 64

// Get returns the reference for hash h. probes reports the number of slots
// examined, which callers convert into timing charges: a two-choice probe
// reads its second bucket only after all memBucketSlots of its first, so
// device.DRAMProbeCost(probes) charges one cache line per bucket touched.
//
// Get is safe to call concurrently with the single writer. A probe that
// overlaps a Reset or a displacement could pair one entry's hash with
// another's reference; the seqlock detects that — seq is odd during either
// and bumped again after — and the probe retries. Retries are bounded by a
// spin budget, after which the reader yields; a Reset clears a few hundred
// slots and a displacement moves a few entries, so the window is a handful
// of retries at most.
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

// probe is the raw probe. Readers must wrap it in seqlock validation (Get);
// the writer may call it directly.
func (m *Mem) probe(h uint64) (ref uint64, probes int, ok bool) {
	if m.g.n != 0 {
		b1, b2, sub := m.g.homes(h)
		var s *memSlot
		if s, ref, probes = m.scanBucket(b1, sub, h); s == nil {
			var p int
			_, ref, p = m.scanBucket(b2, sub, h)
			probes += p
		}
		return ref, probes, ref != 0
	}
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
		if i == 0 && m.writeHook != nil {
			m.writeHook()
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
