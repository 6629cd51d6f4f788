// Package sstable implements the sorted-run tables used by the NoveLSM and
// MatrixKV baselines (paper Section 3.7). Unlike ChameleonDB and the other
// hash stores, these designs keep whole KV items inside the tree — no
// key/value separation — so every compaction rewrites the values too. That
// is the dominant term in Figure 17(b)'s media-write comparison, and the
// comparison-based search (bloom check, binary search, block read) is the
// CPU/read-amplification story of Figure 17(d-f).
//
// Runs are ordered by 64-bit key hash (both baselines are evaluated with
// hash-placed keys in the paper's setup, which also excludes range scans).
package sstable

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"chameleondb/internal/bloom"
	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

// Entry is one KV item in a run.
type Entry struct {
	Hash      uint64
	Key       []byte
	Value     []byte
	Tombstone bool
}

const payloadHeader = 8 // keyLen(2) + flags(2) + valLen(4)

// Run is one immutable sorted run persisted in the arena: payloads followed
// by a slot index. The Go-side hash/ref slices mirror the persisted index
// (which lives in Pmem; searches are charged as Pmem reads).
type Run struct {
	arena *pmem.Arena
	off   int64
	size  int64

	hashes []uint64
	refs   []int64 // absolute payload offsets; negative = tombstone

	filter    *bloom.Filter
	dataBytes int64 // user payload bytes (excl. index and metadata)
}

// BuildOptions tune run construction.
type BuildOptions struct {
	// WithFilter builds an in-DRAM bloom filter for the run.
	WithFilter bool
	// MetaBytesPerEntry models per-entry table metadata written alongside
	// the data (MatrixKV's RowTable metadata, ~45% of KV size at 64 B
	// values — Section 3.7).
	MetaBytesPerEntry int
	// SortCost charges comparison-sort CPU per entry (memtable flushes of
	// already-sorted skiplists pass false).
	SortCost bool
}

// Build creates and persists a run from entries (any order; duplicates by
// hash keep the first occurrence, so pass newest first).
func Build(c *simclock.Clock, arena *pmem.Arena, entries []Entry, opt BuildOptions) (*Run, error) {
	// Dedup newest-first, then sort by hash.
	seen := make(map[uint64]int, len(entries))
	dedup := entries[:0:0]
	for _, e := range entries {
		if _, dup := seen[e.Hash]; dup {
			continue
		}
		seen[e.Hash] = 1
		dedup = append(dedup, e)
	}
	sort.Slice(dedup, func(i, j int) bool { return dedup[i].Hash < dedup[j].Hash })
	if opt.SortCost {
		c.Advance(int64(len(dedup)) * device.CostSortPerKey)
	}

	var payloadBytes int64
	for _, e := range dedup {
		payloadBytes += payloadSize(len(e.Key), len(e.Value))
	}
	indexBytes := int64(len(dedup)) * 16
	metaBytes := int64(len(dedup)) * int64(opt.MetaBytesPerEntry)
	total := payloadBytes + indexBytes + metaBytes
	if total == 0 {
		total = 8
	}
	off, err := arena.Alloc(total)
	if err != nil {
		return nil, err
	}
	r := &Run{arena: arena, off: off, size: total,
		hashes: make([]uint64, len(dedup)), refs: make([]int64, len(dedup))}
	pos := off
	for i, e := range dedup {
		sz := payloadSize(len(e.Key), len(e.Value))
		buf := arena.Bytes(pos, sz)
		binary.LittleEndian.PutUint16(buf[0:2], uint16(len(e.Key)))
		flags := uint16(0)
		if e.Tombstone {
			flags = 1
		}
		binary.LittleEndian.PutUint16(buf[2:4], flags)
		binary.LittleEndian.PutUint32(buf[4:8], uint32(len(e.Value)))
		copy(buf[payloadHeader:], e.Key)
		copy(buf[payloadHeader+len(e.Key):], e.Value)
		r.hashes[i] = e.Hash
		ref := pos
		if e.Tombstone {
			ref = -pos
		}
		r.refs[i] = ref
		r.dataBytes += sz
		pos += sz
		c.Advance(int64(float64(sz) * device.CostDRAMSeqPerByte))
	}
	// One large sequential persist: payloads, index, and metadata together.
	arena.Persist(c, off, total)
	if opt.WithFilter {
		r.filter = bloom.New(len(dedup))
		for _, h := range r.hashes {
			r.filter.Add(c, h)
		}
	}
	return r, nil
}

func payloadSize(keyLen, valLen int) int64 {
	return (int64(payloadHeader+keyLen+valLen) + 7) &^ 7
}

// Len returns the number of entries.
func (r *Run) Len() int { return len(r.hashes) }

// SizeBytes returns the persisted size (payloads + index + metadata).
func (r *Run) SizeBytes() int64 { return r.size }

// DataBytes returns the user payload bytes.
func (r *Run) DataBytes() int64 { return r.dataBytes }

// DRAMFootprint returns the volatile bytes (the bloom filter).
func (r *Run) DRAMFootprint() int64 {
	if r.filter == nil {
		return 0
	}
	return r.filter.SizeBytes()
}

// Get searches the run: optional filter check, binary search over the
// persisted index (charged as Pmem reads outside the cached tail of the
// search), then the payload read.
func (r *Run) Get(c *simclock.Clock, h uint64) (key, value []byte, tombstone, ok bool) {
	if r.filter != nil && !r.filter.Contains(c, h) {
		return nil, nil, false, false
	}
	if len(r.hashes) == 0 {
		return nil, nil, false, false
	}
	steps := bits.Len(uint(len(r.hashes)))
	// The first search steps are scattered random reads of index slots; the
	// last few land within one cached 256 B line.
	pmemSteps := steps - 4
	if pmemSteps < 1 {
		pmemSteps = 1
	}
	for i := 0; i < pmemSteps; i++ {
		r.arena.Device().ReadRandom(c, r.off, 16)
	}
	c.Advance(int64(steps) * device.CostKeyCompare)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i >= len(r.hashes) || r.hashes[i] != h {
		return nil, nil, false, false
	}
	return r.readPayload(c, r.refs[i])
}

// GetHinted searches the run using an in-DRAM positional hint instead of a
// binary search — MatrixKV's cross-row hints (Section 3.7): one DRAM hint
// lookup plus a single Pmem probe of the hinted index slot. The rows still
// have to be checked one by one; the hint only removes the per-row binary
// search.
func (r *Run) GetHinted(c *simclock.Clock, h uint64) (key, value []byte, tombstone, ok bool) {
	c.Advance(device.CostDRAMRandAccess) // cross-row hint lookup
	if len(r.hashes) == 0 {
		return nil, nil, false, false
	}
	r.arena.Device().ReadRandom(c, r.off, 16) // probe the hinted slot
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i >= len(r.hashes) || r.hashes[i] != h {
		return nil, nil, false, false
	}
	return r.readPayload(c, r.refs[i])
}

func (r *Run) readPayload(c *simclock.Clock, ref int64) (key, value []byte, tombstone, ok bool) {
	pos := ref
	if pos < 0 {
		pos = -pos
	}
	hdr := r.arena.Bytes(pos, payloadHeader)
	keyLen := int(binary.LittleEndian.Uint16(hdr[0:2]))
	valLen := int(binary.LittleEndian.Uint32(hdr[4:8]))
	sz := payloadSize(keyLen, valLen)
	buf := r.arena.ReadRandom(c, pos, sz)
	return buf[payloadHeader : payloadHeader+keyLen],
		buf[payloadHeader+keyLen : payloadHeader+keyLen+valLen],
		ref < 0, true
}

// Iterate yields entries in hash order without timing charges; merges charge
// ChargeScan instead.
func (r *Run) Iterate(fn func(Entry) bool) {
	for i, h := range r.hashes {
		pos := r.refs[i]
		tomb := pos < 0
		if tomb {
			pos = -pos
		}
		hdr := r.arena.Bytes(pos, payloadHeader)
		keyLen := int(binary.LittleEndian.Uint16(hdr[0:2]))
		valLen := int(binary.LittleEndian.Uint32(hdr[4:8]))
		buf := r.arena.Bytes(pos, payloadSize(keyLen, valLen))
		e := Entry{
			Hash:      h,
			Key:       buf[payloadHeader : payloadHeader+keyLen],
			Value:     buf[payloadHeader+keyLen : payloadHeader+keyLen+valLen],
			Tombstone: tomb,
		}
		if !fn(e) {
			return
		}
	}
}

// ChargeScan books the sequential read of the whole run (compaction input).
func (r *Run) ChargeScan(c *simclock.Clock) {
	r.arena.Device().ReadSeq(c, r.off, r.size)
}

// Release frees the run's arena region.
func (r *Run) Release() {
	r.arena.Free(r.off, r.size)
}

// Merge combines runs (newest first) into one new run, dropping tombstones
// when dropTombstones is set (bottom-level merges). Inputs are charged as
// sequential scans; the merge itself charges k-way comparison CPU.
func Merge(c *simclock.Clock, arena *pmem.Arena, newestFirst []*Run, opt BuildOptions, dropTombstones bool) (*Run, error) {
	var entries []Entry
	total := 0
	for _, r := range newestFirst {
		r.ChargeScan(c)
		total += r.Len()
	}
	seen := make(map[uint64]struct{}, total)
	for _, r := range newestFirst {
		r.Iterate(func(e Entry) bool {
			if _, dup := seen[e.Hash]; dup {
				return true
			}
			seen[e.Hash] = struct{}{}
			if dropTombstones && e.Tombstone {
				return true
			}
			entries = append(entries, e)
			return true
		})
	}
	// K-way merge comparisons.
	k := len(newestFirst)
	if k > 1 {
		c.Advance(int64(total) * int64(bits.Len(uint(k))) * device.CostKeyCompare)
	}
	opt.SortCost = false // inputs are sorted; the k-way cost was charged above
	return Build(c, arena, entries, opt)
}

// CompactLeveled runs one LevelDB-style leveled compaction. The L0 runs
// (oldest first) and L1 merge, newest first, into a new L1 that replaces
// them; then, while a level holds more than its capacity, it merges into the
// level below. L1 holds l0Bytes×ratio, each deeper level ratio times more;
// levels[k] is L(k+1), and tombstones drop in merges into the last level.
// Every merge rewrites whole runs, values included — the write amplification
// of Figure 17(b). compactions counts the L0 merge when it starts and each
// cascade merge once installed. A merge that a power failure interrupted is
// released, never installed: levels and *l0 model durable LSM metadata that
// survives a crash.
func CompactLeveled(c *simclock.Clock, arena *pmem.Arena, l0 *[]*Run, levels []*Run, l0Bytes int64, ratio int, compactions *atomic.Int64) error {
	compactions.Add(1)
	inputs := make([]*Run, 0, len(*l0)+1)
	for i := len(*l0) - 1; i >= 0; i-- {
		inputs = append(inputs, (*l0)[i])
	}
	if levels[0] != nil {
		inputs = append(inputs, levels[0])
	}
	if err := mergeInto(c, arena, inputs, levels, 0); err != nil {
		return err
	}
	*l0 = nil
	levelCap := l0Bytes
	for lvl := 0; lvl < len(levels)-1; lvl++ {
		levelCap *= int64(ratio)
		r := levels[lvl]
		if r == nil || r.SizeBytes() <= levelCap {
			break
		}
		inputs := []*Run{r}
		if levels[lvl+1] != nil {
			inputs = append(inputs, levels[lvl+1])
		}
		if err := mergeInto(c, arena, inputs, levels, lvl+1); err != nil {
			return err
		}
		levels[lvl] = nil
		compactions.Add(1)
	}
	return nil
}

// mergeInto merges inputs into a new run installed at levels[dst], releasing
// the inputs.
func mergeInto(c *simclock.Clock, arena *pmem.Arena, inputs, levels []*Run, dst int) error {
	merged, err := Merge(c, arena, inputs, BuildOptions{WithFilter: true}, dst == len(levels)-1)
	if err != nil {
		return err
	}
	if arena.Device().PowerFailed() {
		merged.Release()
		return device.ErrPowerFailed
	}
	for _, r := range inputs {
		r.Release()
	}
	levels[dst] = merged
	return nil
}

// String implements fmt.Stringer for debugging.
func (r *Run) String() string {
	return fmt.Sprintf("run{n=%d, bytes=%d}", r.Len(), r.size)
}
