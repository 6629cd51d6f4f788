package hashtable

import (
	"fmt"
	"slices"
	"sync"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

// PmemTable is an immutable fixed-size hash table persisted in the pmem
// arena: an L0..Ln sub-level table or the last-level table of a shard. It is
// built once (a large, 256 B-aligned sequential write, the access pattern
// Optane rewards) and then only read. Concurrent reads are safe; tables are
// never mutated after Seal.
//
// The capacity picks the layout, so nothing beside it is persisted. A
// power-of-two table — every table at the configured geometry — is linear
// probing from h & (cap-1). Any other capacity is a whole number of 256 B
// lines, three or more, and a two-choice table: hash h lives in its first
// candidate line, or in its second only while the first is full (lineHomes),
// so every probe reads at most two lines. The table occupies — and Build
// persists — the first cap slots of a power-of-two arena block: the arena
// recycles freed blocks by exact size, and fitted block sizes would never
// match again.
type PmemTable struct {
	arena *pmem.Arena
	off   int64
	placement
	lines uint64 // a two-choice table's line count; 0 for a power of two
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

// FitTwoChoice returns the smallest capacity of at least slots slots whose
// table a probe reads in at most two lines: half a line, one line, or three
// or more whole lines laid out two-choice. A power-of-two number of lines
// would be laid out for linear probing, so that count takes one line more.
func FitTwoChoice(slots int) int {
	c := FitCapacity(slots)
	if c > slotsPerLine && !twoChoice(c) {
		c += slotsPerLine
	}
	return c
}

// validCapacity reports whether a table may have this many slots.
func validCapacity(capacity int) bool {
	return capacity >= minPmemSlots && (capacity&(capacity-1) == 0 || capacity%slotsPerLine == 0)
}

// twoChoice reports whether a table of this (valid) capacity is laid out in
// two-choice lines: whole lines, not a power of two.
func twoChoice(capacity int) bool { return capacity&(capacity-1) != 0 }

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
	t := &PmemTable{arena: arena, off: off, placement: newPlacement(capacity), count: count}
	if twoChoice(capacity) {
		t.lines = uint64(capacity / slotsPerLine)
	}
	return t
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

// lineShift is log2(slotsPerLine): a two-choice PmemTable's buckets are its
// lines.
const lineShift = 4

// lineHomes returns hash h's two candidate lines in a two-choice table of
// the given number of lines, and the slot within either its probe starts at
// (buckets.homes).
func lineHomes(h, lines uint64) (line1, line2, sub uint64) {
	return buckets{n: lines, shift: lineShift}.homes(h)
}

// insertVolatile places a slot in a power-of-two table's volatile image
// without timing charges; Build batches the cost into one sequential
// persist, as a real flush does.
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
//
// A power-of-two table that src overfills is an error. A two-choice table
// never fails: see buildTwoChoice.
func BuildPmemTable(c *simclock.Clock, arena *pmem.Arena, capacity int, src func(yield func(Slot) bool)) (t *PmemTable, media int64, err error) {
	if capacity = FitCapacity(capacity); twoChoice(capacity) {
		return buildTwoChoice(c, arena, capacity, src)
	}
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

// buildTwoChoice places every entry in DRAM first (lineBuild). When the
// entries cannot all be placed, it places them again in the next two-choice
// table up (FitTwoChoice), so Cap may exceed the capacity asked for; only
// then is the table allocated and its image written.
func buildTwoChoice(c *simclock.Clock, arena *pmem.Arena, capacity int, src func(yield func(Slot) bool)) (*PmemTable, int64, error) {
	b := getLineBuild()
	defer putLineBuild(b)
	src(func(s Slot) bool {
		c.Advance(device.CostCompactionPerSlot) // staging-buffer insert
		if s.Ref != 0 {
			b.entries = append(b.entries, s)
		}
		return true
	})
	lines := capacity / slotsPerLine
	for maxLines := 2*lines + 2; !b.place(lines); {
		if lines = FitTwoChoice((lines+1)*slotsPerLine) / slotsPerLine; lines > maxLines {
			// What gets here is more than two lines' worth of hashes that
			// agree in bits 0..49: no number of lines parts them. Linear
			// probing at a power of two takes any set (its staging is
			// charged twice).
			return BuildPmemTable(c, arena, blockSlots(2*len(b.entries)), func(yield func(Slot) bool) {
				for _, s := range b.entries {
					if !yield(s) {
						return
					}
				}
			})
		}
	}
	t, err := NewPmemTable(arena, lines*slotsPerLine)
	if err != nil {
		return nil, 0, err
	}
	t.count = b.placed
	img := arena.Bytes(t.off, t.SizeBytes())
	for i, s := range b.slots {
		encodeSlot(img[i*SlotSize:], s)
	}
	return t, arena.PersistLater(c, t.off, t.SizeBytes()), nil
}

// lineBuild places a two-choice table's entries in a DRAM image of its lines
// before any byte of the table is written, probing as Get does. The buffers
// are pooled: a grown shard builds a table of tens of thousands of slots on
// every last-level compaction.
type lineBuild struct {
	entries []Slot  // src's entries, newest first, duplicates included
	slots   []Slot  // the table's image, line after line
	fill    []uint8 // entries per line
	placed  int     // distinct entries placed
	hops    []hop   // the displacement search's
}

var lineBuilds sync.Pool

func getLineBuild() *lineBuild {
	if b, ok := lineBuilds.Get().(*lineBuild); ok {
		return b
	}
	return new(lineBuild)
}

func putLineBuild(b *lineBuild) {
	b.entries = b.entries[:0]
	lineBuilds.Put(b)
}

// place assigns every entry to a line of a table of the given number of
// lines, keeping the invariant Get relies on: an entry sits in its first
// line, or in its second only while the first is full. It reports false
// when an entry found no room.
func (b *lineBuild) place(lines int) bool {
	b.slots = slices.Grow(b.slots[:0], lines*slotsPerLine)[:lines*slotsPerLine]
	clear(b.slots)
	b.fill = slices.Grow(b.fill[:0], lines)[:lines]
	clear(b.fill)
	b.placed = 0
	g := buckets{n: uint64(lines), shift: lineShift}
	for _, e := range b.entries {
		line1, line2, sub := g.homes(e.Hash)
		// A first line that is not full never was, so an older duplicate
		// is not in the second: as in Get, the second line is looked at
		// only when the first is full without e's hash.
		added, dup := b.insert(line1, sub, e)
		if !added && !dup {
			added, dup = b.insert(line2, sub, e)
		}
		if !added && !dup {
			hops, at, slot, _, ok := g.findMove(b, b.hops, line1, line2)
			if b.hops = hops; !ok {
				return false
			}
			g.move(b, hops, at, slot, e)
		}
		if !dup {
			b.placed++
		}
	}
	return true
}

// insert probes line from slot sub for e's hash, wrapping inside the line,
// and takes the first empty slot it reaches. A full line without the hash
// reports neither added nor dup.
func (b *lineBuild) insert(line, sub uint64, e Slot) (added, dup bool) {
	l := b.slots[line*slotsPerLine : (line+1)*slotsPerLine]
	for i := uint64(0); i < slotsPerLine; i++ {
		s := &l[(sub+i)%slotsPerLine]
		if s.Ref == 0 {
			*s = e
			b.fill[line]++
			return true, false
		}
		if s.Hash == e.Hash {
			return false, true
		}
	}
	return false, false
}

// slot, setSlot, full and add are the image as a displacement sees it
// (bucketImage).
func (b *lineBuild) slot(i uint64) Slot           { return b.slots[i] }
func (b *lineBuild) setSlot(i uint64, s Slot)     { b.slots[i] = s }
func (b *lineBuild) full(line uint64) bool        { return b.fill[line] == slotsPerLine }
func (b *lineBuild) add(line, sub uint64, s Slot) { b.insert(line, sub, s) }

// Get probes for hash h, charging one random pmem read per 256 B line
// touched and a small CPU cost per additional slot within a line — the probe
// cost model behind the paper's Figure 2 and the last-level latencies of
// Figure 13. A two-choice table reads the first candidate line and, only
// when that line is full without h, the second: never more than two lines.
func (t *PmemTable) Get(c *simclock.Clock, h uint64) (Slot, bool) {
	if t.lines != 0 {
		line1, line2, sub := lineHomes(h, t.lines)
		s, ok, full := t.probeLine(c, line1, sub, h)
		if ok || !full {
			return s, ok
		}
		s, ok, _ = t.probeLine(c, line2, sub, h)
		return s, ok
	}
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

// probeLine reads one line of a two-choice table and probes it for h from
// slot sub, wrapping inside the line. full reports a miss that found no
// empty slot.
func (t *PmemTable) probeLine(c *simclock.Clock, line, sub, h uint64) (s Slot, ok, full bool) {
	b := t.arena.ReadRandom(c, t.off+int64(line)*256, 256)
	for i := uint64(0); i < slotsPerLine; i++ {
		if i > 0 {
			c.Advance(device.CostSlotProbe)
		}
		s = decodeSlot(b[(sub+i)%slotsPerLine*SlotSize:])
		if s.Ref == 0 {
			return Slot{}, false, false
		}
		if s.Hash == h {
			return s, true, false
		}
	}
	return Slot{}, false, true
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
