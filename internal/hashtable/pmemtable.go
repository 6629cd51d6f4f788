package hashtable

import (
	"fmt"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

// PmemTable is an immutable fixed-size linear-probing hash table persisted in
// the pmem arena: an L0..Ln sub-level table or the last-level table of a
// shard. It is built once (a large, 256 B-aligned sequential write, the
// access pattern Optane rewards) and then only read. Concurrent reads are
// safe; tables are never mutated after Seal.
//
// The capacity is a power of two or any whole number of 256 B lines, placed
// by the rule every table shares (placement). The table occupies — and Build
// persists — the first cap slots of a power-of-two arena block: the arena
// recycles freed blocks by exact size, and fitted block sizes would never
// match again.
type PmemTable struct {
	arena *pmem.Arena
	off   int64
	placement
	count int
}

// slotsPerLine is how many 16-byte slots share one 256 B Optane access unit;
// probes within a line after the first are cache hits.
const slotsPerLine = 256 / SlotSize

// minPmemSlots is the smallest table: half a line, as small stores' L0
// tables are.
const minPmemSlots = 8

// FitCapacity returns the smallest legal table capacity of at least capacity
// slots: 8, or a whole number of lines.
func FitCapacity(capacity int) int {
	if capacity <= minPmemSlots {
		return minPmemSlots
	}
	return (capacity + slotsPerLine - 1) / slotsPerLine * slotsPerLine
}

// validCapacity reports whether a table may have this many slots.
func validCapacity(capacity int) bool {
	return capacity >= minPmemSlots && (capacity&(capacity-1) == 0 || capacity%slotsPerLine == 0)
}

// blockSlots is the power-of-two arena block a table of the given capacity
// lives in, in slots.
func blockSlots(capacity int) int {
	b := minPmemSlots
	for b < capacity {
		b <<= 1
	}
	return b
}

func newPmemTable(arena *pmem.Arena, off int64, capacity, count int) *PmemTable {
	return &PmemTable{arena: arena, off: off, placement: newPlacement(capacity), count: count}
}

// NewPmemTable allocates an empty table of FitCapacity(capacity) slots in the
// arena.
func NewPmemTable(arena *pmem.Arena, capacity int) (*PmemTable, error) {
	c := FitCapacity(capacity)
	off, err := arena.Alloc(int64(blockSlots(c)) * SlotSize)
	if err != nil {
		return nil, err
	}
	return newPmemTable(arena, off, c, 0), nil
}

// OpenPmemTable reattaches to a persisted table at a known offset (recovery
// path). count is restored from the manifest. The geometry comes from durable
// bytes that a torn manifest write could have corrupted, so every field is
// validated before it can index the arena — the whole block, since Release
// hands all of it back.
func OpenPmemTable(arena *pmem.Arena, off int64, capacity, count int) (*PmemTable, error) {
	// Bounding the capacity by the arena first keeps the block arithmetic
	// below from overflowing on a corrupt 2^62.
	if !validCapacity(capacity) || int64(capacity) > arena.Capacity()/SlotSize {
		return nil, fmt.Errorf("hashtable: invalid persisted capacity %d", capacity)
	}
	if count < 0 || count > capacity {
		return nil, fmt.Errorf("hashtable: persisted count %d out of range for capacity %d", count, capacity)
	}
	if off <= 0 || off > arena.Capacity()-int64(blockSlots(capacity))*SlotSize {
		return nil, fmt.Errorf("hashtable: persisted table [%d, +%d slots] outside arena", off, capacity)
	}
	return newPmemTable(arena, off, capacity, count), nil
}

// Cap returns the slot capacity.
func (t *PmemTable) Cap() int { return t.cap }

// Len returns the number of occupied slots.
func (t *PmemTable) Len() int { return t.count }

// Offset returns the table's arena offset, recorded in shard manifests.
func (t *PmemTable) Offset() int64 { return t.off }

// SizeBytes returns the persisted size: the slots, not the block.
func (t *PmemTable) SizeBytes() int64 { return int64(t.cap) * SlotSize }

// BlockBytes returns the size of the arena block the table was allocated in.
func (t *PmemTable) BlockBytes() int64 { return int64(blockSlots(t.cap)) * SlotSize }

// insertVolatile places a slot in the volatile image without timing charges;
// Build batches the cost into one sequential persist, as a real flush does.
func (t *PmemTable) insertVolatile(s Slot) bool {
	idx := t.home(s.Hash)
	for i := 0; i < t.cap; i++ {
		b := t.arena.Bytes(t.off+int64(idx)*SlotSize, SlotSize)
		cur := decodeSlot(b)
		if cur.Ref == 0 {
			encodeSlot(b, s)
			t.count++
			return true
		}
		if cur.Hash == s.Hash {
			return false // caller iterates newest-first; keep the newer entry
		}
		idx = t.next(idx)
	}
	return false
}

// BuildPmemTable constructs and persists a table from src. src must yield
// entries newest-first when it contains duplicate hashes: the first
// occurrence of a hash wins. The build charges the DRAM-side staging cost
// per slot and one sequential persist of the whole table — the 256 B-aligned
// batched write that gives ChameleonDB write amplification 1/f per table
// (Section 2.5). media is what the device charged for that persist. On a
// medium the table is only written back (Arena.PersistLater): nothing may
// reference it until the manifest that does is persisted, and that persist is
// a barrier first.
func BuildPmemTable(c *simclock.Clock, arena *pmem.Arena, capacity int, src func(yield func(Slot) bool)) (t *PmemTable, media int64, err error) {
	t, err = NewPmemTable(arena, capacity)
	if err != nil {
		return nil, 0, err
	}
	overflow := false
	src(func(s Slot) bool {
		c.Advance(device.CostCompactionPerSlot) // staging-buffer insert
		if s.Ref == 0 {
			return true
		}
		if t.count >= t.cap {
			overflow = true
			return false
		}
		t.insertVolatile(s)
		return true
	})
	if overflow {
		t.Release()
		return nil, 0, fmt.Errorf("hashtable: build overflow (cap %d)", t.cap)
	}
	return t, arena.PersistLater(c, t.off, t.SizeBytes()), nil
}

// Get probes for hash h, charging one random pmem read per 256 B line
// touched and a small CPU cost per additional slot within a line — the probe
// cost model behind the paper's Figure 2 and the last-level latencies of
// Figure 13.
func (t *PmemTable) Get(c *simclock.Clock, h uint64) (Slot, bool) {
	idx := t.home(h)
	lastLine := int64(-1)
	for i := 0; i < t.cap; i++ {
		line := int64(idx) / slotsPerLine
		if line != lastLine {
			t.arena.ReadRandom(c, t.off+line*256, 256)
			lastLine = line
		} else {
			c.Advance(device.CostSlotProbe)
		}
		s := decodeSlot(t.arena.Bytes(t.off+int64(idx)*SlotSize, SlotSize))
		if s.Ref == 0 {
			return Slot{}, false
		}
		if s.Hash == h {
			return s, true
		}
		idx = t.next(idx)
	}
	return Slot{}, false
}

// Iterate calls fn for every occupied slot without timing charges; callers
// performing a compaction charge one ReadSeq of the table instead (or no
// read at all when merging from the ABI, Section 2.2/Figure 8).
func (t *PmemTable) Iterate(fn func(Slot) bool) {
	for i := 0; i < t.cap; i++ {
		s := decodeSlot(t.arena.Bytes(t.off+int64(i)*SlotSize, SlotSize))
		if s.Ref != 0 {
			if !fn(s) {
				return
			}
		}
	}
}

// ChargeScan books the sequential read of the whole table used by
// Pmem-resident compactions.
func (t *PmemTable) ChargeScan(c *simclock.Clock) {
	t.arena.ReadSeq(c, t.off, t.SizeBytes())
}

// Release returns the table's block to the arena.
func (t *PmemTable) Release() {
	t.arena.Free(t.off, t.BlockBytes())
}
