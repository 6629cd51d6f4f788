package hashtable

import "slices"

// A two-choice table is cut into buckets of one size — a fitted PmemTable's
// 256 B lines, a fitted Mem's 64 B cache lines — and gives every hash two
// candidate buckets. An entry sits in its first bucket, or in its second only
// while the first is full; inside a bucket it is linear-probed from a slot
// home, wrapping inside the bucket. No entry ever leaves a table, and a move
// out of a bucket puts another entry in the same slot, so a bucket that was
// full stays full: a probe reads the first bucket, stops at a hit or an empty
// slot, and reads the second only when the first is full without the hash.
// Every hit and every miss reads at most two buckets.

// buckets is a two-choice table's geometry: n buckets (two or more) of
// 1<<shift slots each.
type buckets struct {
	n     uint64
	shift uint
}

// line2Bits is how many hash bits above the low 32 pick a hash's second
// bucket: bits 32..49, which the shard router (the top log2(Shards) bits; the
// engine allows at most 2^14 shards) never reaches.
const line2Bits = 18

// homes returns hash h's two candidate buckets and the slot within either
// its probe starts at. The first bucket and the slot are the multiply-shift
// of the low 32 hash bits onto the table's slots, at bucket grain and within
// it; the second is the first plus an offset in [1, n-1] taken from bits
// 32..49, so it never is the first.
func (g buckets) homes(h uint64) (b1, b2, sub uint64) {
	home := uint64(uint32(h)) * (g.n << g.shift) >> 32
	b1, sub = home>>g.shift, home&(1<<g.shift-1)
	b2 = b1 + 1 + (h>>32&(1<<line2Bits-1))*(g.n-1)>>line2Bits
	if b2 >= g.n {
		b2 -= g.n
	}
	return b1, b2, sub
}

// size returns the slots in one bucket.
func (g buckets) size() uint64 { return 1 << g.shift }

// bucketImage is a two-choice table's slots as a displacement reads and
// moves them: a PmemTable's DRAM image while it is built (lineBuild), or a
// fitted Mem.
type bucketImage interface {
	slot(i uint64) Slot
	setSlot(i uint64, s Slot)
	full(b uint64) bool
	// add places s in the first empty slot of bucket b from slot sub; b is
	// not full.
	add(b, sub uint64, s Slot)
}

// hop is one full bucket findMove reached: the entry at index slot of bucket
// hops[from] has this bucket as its second and may move here.
type hop struct {
	bucket     uint64
	from, slot int // from < 0: a candidate bucket of the entry being placed
	depth      int // moves between this bucket and the entry being placed
}

// maxHops bounds findMove's search: one that reaches this many full buckets
// gives up, and the table's owner takes a larger table.
const maxHops = 64

// findMove searches breadth-first from an entry's two full buckets for a
// chain of one-way moves that ends at a bucket with room, where a move takes
// an entry sitting in its own first bucket to its second. It returns the
// search's hops and the hop and slot index of the chain's last move; ok is
// false when no chain was found. It only reads: move makes the chain.
//
// rounds is the search's depth: how many times it read the second buckets
// of the entries of the buckets it had reached. A bucket's entries name
// their second buckets without a further read, so the room checks of one
// level of the search are independent loads, issued together; a caller that
// charges memory accesses charges one dependent random access per round.
func (g buckets) findMove(t bucketImage, hops []hop, b1, b2 uint64) (_ []hop, at, slot, rounds int, ok bool) {
	hops = append(hops[:0], hop{bucket: b1, from: -1}, hop{bucket: b2, from: -1})
	for i := 0; i < len(hops); i++ {
		x := hops[i].bucket
		rounds = hops[i].depth + 1
		for j := range g.size() {
			m1, m2, _ := g.homes(t.slot(x<<g.shift + j).Hash)
			if m1 != x {
				continue // already in its second bucket
			}
			if !t.full(m2) {
				return hops, i, int(j), rounds, true
			}
			if len(hops) < maxHops && !slices.ContainsFunc(hops, func(h hop) bool { return h.bucket == m2 }) {
				hops = append(hops, hop{bucket: m2, from: i, slot: int(j), depth: rounds})
			}
		}
	}
	return hops, 0, 0, rounds, false
}

// move makes the chain findMove found and places e at its root. The chain's
// last entry moves to its second bucket, which has room; then every bucket on
// the chain, back to the root, takes the entry that left the bucket before it
// into the slot its own mover left. Every bucket on the chain gives one entry
// and takes one, so it stays full — where a probe scans every slot — and the
// invariant holds. Every moved entry is written to its new slot before its
// old one is overwritten.
func (g buckets) move(t bucketImage, hops []hop, at, slot int, e Slot) {
	m := t.slot(hops[at].bucket<<g.shift + uint64(slot))
	_, m2, sub := g.homes(m.Hash)
	t.add(m2, sub, m)
	for k := at; ; {
		h := hops[k]
		dst := h.bucket<<g.shift + uint64(slot)
		if h.from < 0 {
			t.setSlot(dst, e)
			return
		}
		t.setSlot(dst, t.slot(hops[h.from].bucket<<g.shift+uint64(h.slot)))
		k, slot = h.from, h.slot
	}
}
