package core

import (
	"chameleondb/internal/bloom"
	"chameleondb/internal/device"
	"chameleondb/internal/hashtable"
	"chameleondb/internal/simclock"
)

// ptable couples a persisted hash table with the optional volatile
// accelerators used by the Pmem-LSM baseline variants (Section 3.2):
//
//   - filter: an in-DRAM bloom filter per table (Pmem-LSM-F). Construction
//     burns CPU on every flush and compaction — the cost behind that
//     variant's low put throughput in Figure 10.
//   - pinned: a full in-DRAM copy of the table (Pmem-LSM-PinK pins every
//     level except the last), trading ChameleonDB-sized DRAM for multi-probe
//     DRAM reads instead of Pmem reads.
//
// ChameleonDB itself uses neither: its ABI makes per-table accelerators
// redundant, which is exactly the comparison the paper draws.
type ptable struct {
	t      *hashtable.PmemTable
	filter *bloom.Filter
	pinned *hashtable.Mem
}

// build constructs the requested accelerators from the persisted table,
// charging filter-construction CPU and DRAM copy costs.
func (p *ptable) build(c *simclock.Clock, wantFilter, wantPin bool) {
	if wantFilter {
		p.filter = bloom.New(p.t.Len())
		p.t.Iterate(func(s hashtable.Slot) bool {
			p.filter.Add(c, s.Hash)
			return true
		})
	}
	if wantPin {
		// A power of two at least the table's capacity: linear probing,
		// which places every entry while a slot is free, and the table
		// holds at most Cap distinct hashes — no Insert here can fail.
		p.pinned = hashtable.NewMem(p.t.Cap())
		p.t.Iterate(func(s hashtable.Slot) bool {
			p.pinned.Insert(s.Hash, s.Ref)
			return true
		})
		c.Advance(int64(float64(p.t.SizeBytes()) * device.CostDRAMSeqPerByte))
	}
}

// wrapUpper attaches the configured accelerators to a new upper-level table.
func (sh *shard) wrapUpper(c *simclock.Clock, t *hashtable.PmemTable) *ptable {
	p := &ptable{t: t}
	p.build(c, sh.store.cfg.BloomFilters, sh.store.cfg.PinUppers)
	return p
}

// wrapLast attaches accelerators appropriate for the last level: bloom
// filters apply (Pmem-LSM-F filters every table), pinning does not
// (Pmem-LSM-PinK keeps the last level in Pmem only).
func (sh *shard) wrapLast(c *simclock.Clock, t *hashtable.PmemTable) *ptable {
	p := &ptable{t: t}
	p.build(c, sh.store.cfg.BloomFilters, false)
	return p
}

// get probes the table through its accelerators.
func (p *ptable) get(c *simclock.Clock, h uint64) (hashtable.Slot, bool) {
	if p.filter != nil && !p.filter.Contains(c, h) {
		return hashtable.Slot{}, false
	}
	if p.pinned != nil {
		ref, probes, ok := p.pinned.Get(h)
		c.Advance(device.DRAMProbeCost(probes))
		if !ok {
			return hashtable.Slot{}, false
		}
		return hashtable.Slot{Hash: h, Ref: ref}, true
	}
	return p.t.Get(c, h)
}

// dramFootprint reports the accelerators' volatile memory.
func (p *ptable) dramFootprint() int64 {
	var n int64
	if p.filter != nil {
		n += p.filter.SizeBytes()
	}
	if p.pinned != nil {
		n += p.pinned.DRAMFootprint()
	}
	return n
}

// release returns the persisted table's space to the arena.
func (p *ptable) release() { p.t.Release() }
