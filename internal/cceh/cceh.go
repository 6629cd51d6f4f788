// Package cceh implements CCEH (Cacheline-Conscious Extendible Hashing,
// Nam et al., FAST'19), the persistent hash table behind the paper's
// Pmem-Hash baseline. The directory lives in DRAM with a persisted copy; the
// segments live in persistent memory and are updated in place with small
// store+fence writes — the access pattern whose 256 B read-modify-write
// amplification makes Pmem-Hash the slowest writer in the evaluation.
package cceh

import (
	"encoding/binary"
	"fmt"

	"chameleondb/internal/device"
	"chameleondb/internal/hashtable"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

const (
	// SegmentSlots is the number of 16-byte slots per segment (16 KB
	// segments, CCEH's default kilobyte-scale segment size).
	SegmentSlots = 1024
	// probeWindow bounds linear probing within a segment, CCEH's
	// displacement limit. A larger window lets segments run at the high
	// load factors a billion-key CCEH reaches before splitting, which is
	// what gives Pmem-Hash its multi-line probe sequences (Figure 13's
	// latency gap to ChameleonDB's single-probe last level).
	probeWindow = 64
	slotSize    = hashtable.SlotSize
	segBytes    = SegmentSlots * slotSize
)

type segment struct {
	off        int64
	localDepth uint8
}

// Table is a CCEH hash table mapping 64-bit key hashes to references.
// Not safe for concurrent use; the Pmem-Hash store serializes per stripe.
type Table struct {
	arena       *pmem.Arena
	dir         []*segment
	globalDepth uint8

	inserts int64
	splits  int64
}

// New creates a table with 2^initialDepth segments.
func New(arena *pmem.Arena, initialDepth uint8) (*Table, error) {
	t := &Table{arena: arena, globalDepth: initialDepth}
	n := 1 << initialDepth
	t.dir = make([]*segment, n)
	for i := 0; i < n; i++ {
		off, err := arena.Alloc(segBytes)
		if err != nil {
			return nil, err
		}
		t.dir[i] = &segment{off: off, localDepth: initialDepth}
	}
	return t, nil
}

// dirIndex selects the directory entry: the top globalDepth bits of the hash.
func (t *Table) dirIndex(h uint64) int {
	if t.globalDepth == 0 {
		return 0
	}
	return int(h >> (64 - t.globalDepth))
}

func (t *Table) slotOff(seg *segment, idx int) int64 {
	return seg.off + int64(idx)*slotSize
}

func (t *Table) loadSlot(seg *segment, idx int) hashtable.Slot {
	b := t.arena.Bytes(t.slotOff(seg, idx), slotSize)
	return hashtable.Slot{
		Hash: binary.LittleEndian.Uint64(b[0:8]),
		Ref:  binary.LittleEndian.Uint64(b[8:16]),
	}
}

// storeSlot persists one 16-byte slot in place: the small random pmem write
// with 16x media amplification that defines this baseline.
func (t *Table) storeSlot(c *simclock.Clock, seg *segment, idx int, s hashtable.Slot) {
	var b [slotSize]byte
	binary.LittleEndian.PutUint64(b[0:8], s.Hash)
	binary.LittleEndian.PutUint64(b[8:16], s.Ref)
	t.arena.StorePersist(c, t.slotOff(seg, idx), b[:])
}

// Insert adds or updates the entry for h. Segment splits are handled
// transparently (and charged: read old segment, write two new ones, persist
// the directory).
func (t *Table) Insert(c *simclock.Clock, h uint64, ref uint64) error {
	for attempt := 0; attempt < 64; attempt++ {
		c.Advance(device.CostDRAMRandAccess) // directory lookup
		seg := t.dir[t.dirIndex(h)]
		base := int(h % SegmentSlots)
		lastLine := -1
		for i := 0; i < probeWindow; i++ {
			idx := (base + i) % SegmentSlots
			if line := idx / (256 / slotSize); line != lastLine {
				t.arena.ReadRandom(c, seg.off+int64(line)*256, 256)
				lastLine = line
			} else {
				c.Advance(device.CostSlotProbe)
			}
			s := t.loadSlot(seg, idx)
			if s.Ref == 0 || s.Hash == h {
				t.storeSlot(c, seg, idx, hashtable.Slot{Hash: h, Ref: ref})
				t.inserts++
				return nil
			}
		}
		if err := t.split(c, seg); err != nil {
			return err
		}
	}
	return fmt.Errorf("cceh: insert failed after repeated splits (pathological hash distribution)")
}

// split divides seg into two segments of localDepth+1, doubling the
// directory if needed.
func (t *Table) split(c *simclock.Clock, seg *segment) error {
	t.splits++
	if seg.localDepth == t.globalDepth {
		if t.globalDepth >= 48 {
			return fmt.Errorf("cceh: directory depth limit reached")
		}
		nd := make([]*segment, len(t.dir)*2)
		for i, s := range t.dir {
			nd[2*i], nd[2*i+1] = s, s
		}
		t.dir = nd
		t.globalDepth++
		// Persisting the directory copy: one sequential write.
		dirOff, err := t.arena.Alloc(int64(len(t.dir)) * 8)
		if err != nil {
			return err
		}
		t.arena.Persist(c, dirOff, int64(len(t.dir))*8)
		t.arena.Free(dirOff, int64(len(t.dir))*8)
	}
	newDepth := seg.localDepth + 1
	offA, err := t.arena.Alloc(segBytes)
	if err != nil {
		return err
	}
	offB, err := t.arena.Alloc(segBytes)
	if err != nil {
		return err
	}
	segA := &segment{off: offA, localDepth: newDepth}
	segB := &segment{off: offB, localDepth: newDepth}

	// Read the old segment (sequential), redistribute by the new depth bit.
	t.arena.ReadSeq(c, seg.off, segBytes)
	for i := 0; i < SegmentSlots; i++ {
		s := t.loadSlot(seg, i)
		if s.Ref == 0 {
			continue
		}
		dst := segA
		if s.Hash>>(64-newDepth)&1 == 1 {
			dst = segB
		}
		base := int(s.Hash % SegmentSlots)
		for j := 0; j < SegmentSlots; j++ {
			idx := (base + j) % SegmentSlots
			cur := t.loadSlot(dst, idx)
			if cur.Ref == 0 {
				b := t.arena.Bytes(t.slotOff(dst, idx), slotSize)
				binary.LittleEndian.PutUint64(b[0:8], s.Hash)
				binary.LittleEndian.PutUint64(b[8:16], s.Ref)
				break
			}
		}
	}
	// Persist both new segments as bulk writes.
	t.arena.Persist(c, offA, segBytes)
	t.arena.Persist(c, offB, segBytes)
	// The directory is host state that survives Crash: never point it at
	// segments whose persists a power failure dropped.
	if t.arena.Device().PowerFailed() {
		return device.ErrPowerFailed
	}

	// Update every directory entry that pointed at the old segment. The
	// entries form one contiguous, aligned group of `stride` slots, so the
	// first half maps to the 0-bit child and the second half to the 1-bit.
	stride := 1 << (t.globalDepth - seg.localDepth)
	for i := range t.dir {
		if t.dir[i] == seg {
			// The top newDepth-th bit of the hash range decides A vs B:
			// within the group of stride entries, the first half gets A.
			if i%stride < stride/2 {
				t.dir[i] = segA
			} else {
				t.dir[i] = segB
			}
		}
	}
	t.arena.Free(seg.off, segBytes)
	return nil
}

// Get returns the reference for h.
func (t *Table) Get(c *simclock.Clock, h uint64) (uint64, bool) {
	c.Advance(device.CostDRAMRandAccess) // directory lookup
	seg := t.dir[t.dirIndex(h)]
	base := int(h % SegmentSlots)
	lastLine := -1
	for i := 0; i < probeWindow; i++ {
		idx := (base + i) % SegmentSlots
		if line := idx / (256 / slotSize); line != lastLine {
			t.arena.ReadRandom(c, seg.off+int64(line)*256, 256)
			lastLine = line
		} else {
			c.Advance(device.CostSlotProbe)
		}
		s := t.loadSlot(seg, idx)
		if s.Ref == 0 {
			return 0, false
		}
		if s.Hash == h {
			if s.Tombstone() {
				return 0, false
			}
			return s.Ref, true
		}
	}
	return 0, false
}

// Delete marks h deleted in place (one small persisted write).
func (t *Table) Delete(c *simclock.Clock, h uint64) bool {
	c.Advance(device.CostDRAMRandAccess)
	seg := t.dir[t.dirIndex(h)]
	base := int(h % SegmentSlots)
	for i := 0; i < probeWindow; i++ {
		idx := (base + i) % SegmentSlots
		s := t.loadSlot(seg, idx)
		if s.Ref == 0 {
			return false
		}
		if s.Hash == h {
			t.storeSlot(c, seg, idx, hashtable.Slot{Hash: h, Ref: hashtable.TombstoneBit})
			return true
		}
	}
	return false
}

// DirSize returns the number of directory entries (DRAM footprint driver).
func (t *Table) DirSize() int { return len(t.dir) }

// Splits returns the number of segment splits performed.
func (t *Table) Splits() int64 { return t.splits }

// DRAMFootprint returns the DRAM bytes used by the directory and per-segment
// bookkeeping CCEH keeps volatile.
func (t *Table) DRAMFootprint() int64 {
	return int64(len(t.dir))*8 + int64(len(t.dir))*16
}

// Iterate visits every live entry (used only by tests and recovery checks).
func (t *Table) Iterate(fn func(h, ref uint64) bool) {
	seen := make(map[*segment]bool)
	for _, seg := range t.dir {
		if seen[seg] {
			continue
		}
		seen[seg] = true
		for i := 0; i < SegmentSlots; i++ {
			s := t.loadSlot(seg, i)
			if s.Ref != 0 && !s.Tombstone() {
				if !fn(s.Hash, s.Ref) {
					return
				}
			}
		}
	}
}
