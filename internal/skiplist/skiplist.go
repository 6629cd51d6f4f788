// Package skiplist implements the in-Pmem mutable MemTable used by the
// NoveLSM baseline (Kannan et al., ATC'18). NoveLSM persists arriving KV
// items by inserting them directly into a skip list in persistent memory;
// every insert performs several small random pmem writes (the new node plus
// pointer updates in predecessors), each of which the device model amplifies
// to 256 B read-modify-writes — the behaviour the paper identifies as
// NoveLSM's main write-path weakness (Section 3.7).
package skiplist

import (
	"encoding/binary"
	"math/rand"

	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

const (
	maxHeight = 12
	// node layout: [8 B hash][8 B ref][1 B height, padded to 8][height * 8 B nexts]
	nodeHdr = 24
)

// List is a persistent skip list ordered by key hash, mapping hashes to log
// references. Not safe for concurrent use.
type List struct {
	arena *pmem.Arena
	slab  *pmem.Slab
	head  int64 // offset of head node (full height, hash ignored)
	rng   *rand.Rand
	count int
	bytes int64
}

// New creates an empty list whose nodes are carved from slab. Node heights
// come from a generator seeded 1, so a list's shape is the same every run.
func New(arena *pmem.Arena, slab *pmem.Slab) (*List, error) {
	l := &List{arena: arena, slab: slab, rng: rand.New(rand.NewSource(1))}
	off, err := slab.Alloc(nodeHdr + maxHeight*8)
	if err != nil {
		return nil, err
	}
	l.head = off
	return l, nil
}

func (l *List) nodeHash(off int64) uint64 {
	return binary.LittleEndian.Uint64(l.arena.Bytes(off, 8))
}

func (l *List) nodeRef(off int64) uint64 {
	return binary.LittleEndian.Uint64(l.arena.Bytes(off+8, 8))
}

func (l *List) nodeHeight(off int64) int {
	return int(l.arena.Bytes(off+16, 1)[0])
}

func (l *List) next(off int64, level int) int64 {
	return int64(binary.LittleEndian.Uint64(l.arena.Bytes(off+nodeHdr+int64(level)*8, 8)))
}

func (l *List) setNextVolatile(off int64, level int, to int64) {
	binary.LittleEndian.PutUint64(l.arena.Bytes(off+nodeHdr+int64(level)*8, 8), uint64(to))
}

// Len returns the number of entries.
func (l *List) Len() int { return l.count }

// PmemBytes returns the bytes of node storage consumed.
func (l *List) PmemBytes() int64 { return l.bytes }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findPredecessors walks the list charging one random pmem read per node
// visited and fills prev with the rightmost node < hash at each level.
func (l *List) findPredecessors(c *simclock.Clock, hash uint64, prev *[maxHeight]int64) int64 {
	x := l.head
	for level := maxHeight - 1; level >= 0; level-- {
		for {
			nxt := l.next(x, level)
			if nxt == 0 || l.nodeHash(nxt) >= hash {
				break
			}
			l.arena.ReadRandom(c, nxt, nodeHdr)
			x = nxt
		}
		prev[level] = x
	}
	n := l.next(x, 0)
	if n != 0 {
		l.arena.ReadRandom(c, n, nodeHdr)
	}
	return n
}

// Insert adds or updates hash -> ref. Updates overwrite the node's ref in
// place (one small persisted write); inserts allocate a node and splice it in
// with one small persisted write per touched predecessor pointer.
func (l *List) Insert(c *simclock.Clock, hash uint64, ref uint64) error {
	var prev [maxHeight]int64
	n := l.findPredecessors(c, hash, &prev)
	if n != 0 && l.nodeHash(n) == hash {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], ref)
		l.arena.StorePersist(c, n+8, b[:])
		return nil
	}
	h := l.randomHeight()
	size := int64(nodeHdr + h*8)
	off, err := l.slab.Alloc(size)
	if err != nil {
		return err
	}
	l.bytes += size
	buf := l.arena.Bytes(off, size)
	binary.LittleEndian.PutUint64(buf[0:8], hash)
	binary.LittleEndian.PutUint64(buf[8:16], ref)
	buf[16] = byte(h)
	for level := 0; level < h; level++ {
		l.setNextVolatile(off, level, l.next(prev[level], level))
	}
	// Persist the node, then flip each predecessor pointer with a small
	// persisted write — NoveLSM's write-amplifying pattern.
	l.arena.Persist(c, off, size)
	for level := 0; level < h; level++ {
		l.setNextVolatile(prev[level], level, off)
		l.arena.Persist(c, prev[level]+nodeHdr+int64(level)*8, 8)
	}
	l.count++
	return nil
}

// Get returns the reference for hash.
func (l *List) Get(c *simclock.Clock, hash uint64) (uint64, bool) {
	var prev [maxHeight]int64
	n := l.findPredecessors(c, hash, &prev)
	if n != 0 && l.nodeHash(n) == hash {
		return l.nodeRef(n), true
	}
	return 0, false
}

// Iterate visits entries in hash order without timing charges; compactions
// charge a bulk sequential read instead.
func (l *List) Iterate(fn func(hash, ref uint64) bool) {
	for n := l.next(l.head, 0); n != 0; n = l.next(n, 0) {
		if !fn(l.nodeHash(n), l.nodeRef(n)) {
			return
		}
	}
}

// Reset empties the list (the nodes' slab space is abandoned, as NoveLSM
// abandons an immutable memtable after compaction). The cleared head is
// persisted: the list head is durable state, and leaving stale durable
// pointers into the abandoned chain would corrupt the list after a crash.
func (l *List) Reset(c *simclock.Clock) {
	for level := 0; level < maxHeight; level++ {
		l.setNextVolatile(l.head, level, 0)
	}
	l.arena.Persist(c, l.head, nodeHdr+maxHeight*8)
	l.count = 0
	l.bytes = 0
}
