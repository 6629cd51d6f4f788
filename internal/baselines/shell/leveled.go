package shell

import (
	"bytes"
	"slices"
	"sync/atomic"

	"chameleondb/internal/blockcache"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/sstable"
)

// Leveled is the part of a leveled LSM below L0 that NoveLSM and MatrixKV
// share: the filtered levels, the in-DRAM block cache and the compaction
// count. Each store keeps its own MemTable and L0 and passes them in; the
// caller holds the store's lane.
type Leveled struct {
	arena  *pmem.Arena
	levels []*sstable.Run // levels[k] is L(k+1): one run each
	// Cache is the in-DRAM block cache: a write invalidates its key, a
	// crash empties it.
	Cache *blockcache.Cache

	// compactions is atomic: the metrics registry reads it outside the lane.
	compactions atomic.Int64
}

// NewLeveled builds n empty levels and a block cache of cacheBytes on s's
// arena, and registers the compaction count.
func (s *Store) NewLeveled(n int, cacheBytes int64) *Leveled {
	l := &Leveled{arena: s.Arena, levels: make([]*sstable.Run, n), Cache: blockcache.New(cacheBytes)}
	s.reg.CounterFunc("compactions", l.compactions.Load)
	return l
}

// Compactions reports how many compactions have run.
func (l *Leveled) Compactions() int64 { return l.compactions.Load() }

// Compact merges l0 into the levels (sstable.CompactLeveled) once it holds
// trigger runs of one MemTable's memTableBytes each.
func (l *Leveled) Compact(c *simclock.Clock, l0 *[]*sstable.Run, trigger int, memTableBytes int64, ratio int) error {
	if len(*l0) < trigger {
		return nil
	}
	return sstable.CompactLeveled(c, l.arena, l0, l.levels, memTableBytes*int64(trigger), ratio, &l.compactions)
}

// Runs returns l0 followed by the levels in use.
func (l *Leveled) Runs(l0 []*sstable.Run) []*sstable.Run {
	runs := slices.Clip(l0)
	for _, r := range l.levels {
		if r != nil {
			runs = append(runs, r)
		}
	}
	return runs
}

// Footprint is the DRAM the block cache and the runs' filters hold.
func (l *Leveled) Footprint(l0 []*sstable.Run) int64 {
	total := l.Cache.UsedBytes()
	for _, r := range l.Runs(l0) {
		total += r.DRAMFootprint()
	}
	return total
}

// Probe is a search of one MemTable or run for a key hash, with
// sstable.Run.Get's results.
type Probe func(c *simclock.Clock, h uint64) (key, value []byte, tombstone, ok bool)

// Walk is the read walk: the block cache, then mem, then the l0 runs newest
// first through probeL0, then the filtered levels top down. The first probe
// that matches h decides; a tombstone or another key under the same hash is
// a miss. A value found in a run is cached; every value is copied out.
func (l *Leveled) Walk(c *simclock.Clock, h uint64, key []byte, mem Probe, l0 []*sstable.Run, probeL0 func(*sstable.Run, *simclock.Clock, uint64) ([]byte, []byte, bool, bool)) ([]byte, bool) {
	if v, ok := l.Cache.Get(c, h); ok {
		return append([]byte(nil), v...), true
	}
	if k, v, tomb, ok := mem(c, h); ok {
		if tomb || !bytes.Equal(k, key) {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	check := func(k, v []byte, tomb, ok bool) ([]byte, bool, bool) {
		if !ok {
			return nil, false, false
		}
		if tomb || !bytes.Equal(k, key) {
			return nil, false, true
		}
		l.Cache.Put(h, v)
		return append([]byte(nil), v...), true, true
	}
	for i := len(l0) - 1; i >= 0; i-- {
		if v, found, done := check(probeL0(l0[i], c, h)); done {
			return v, found
		}
	}
	for _, r := range l.levels {
		if r == nil {
			continue
		}
		if v, found, done := check(r.Get(c, h)); done {
			return v, found
		}
	}
	return nil, false
}
