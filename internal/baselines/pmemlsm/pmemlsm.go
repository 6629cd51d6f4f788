// Package pmemlsm implements the Pmem-LSM baselines of Section 3.2: a
// hash-keyed LSM-tree KV store whose levels live entirely in the Optane
// Pmem, in three variants:
//
//   - NF: no bloom filters. Gets walk the levels in Pmem — the long
//     multi-level read path of Figure 6(a) and the slowest reader in
//     Figure 12.
//   - F: an in-DRAM bloom filter per table. Reads improve, but filter
//     construction makes the CPU the bottleneck on the write path
//     (Figure 10's 2-3x put-throughput gap to NF).
//   - PinK: every level except the last is mirrored in DRAM (after Im et
//     al.'s PinK, ATC'20), no filters. Same DRAM budget as ChameleonDB's
//     ABI, but reads still take multi-table checks — the comparison that
//     shows *how* DRAM is used matters, not just how much (Section 3.3).
//
// Structurally these stores are ChameleonDB stripped of its Auxiliary
// Bypass Index (the paper introduces them as the designs ChameleonDB
// hybridizes), so the implementation composes the core engine with the ABI
// disabled plus the per-table accelerator options. Write path, compaction
// scheme, recovery watermarks, and manifests are shared — exactly the
// "same substrate, different read acceleration" comparison the paper draws.
package pmemlsm

import (
	"fmt"

	"chameleondb/internal/core"
	"chameleondb/internal/kvstore"
)

// Variant selects the read-acceleration strategy.
type Variant int

const (
	// NF is Pmem-LSM-NF: multi-level Pmem reads, no filters.
	NF Variant = iota
	// F is Pmem-LSM-F: in-DRAM bloom filters per table.
	F
	// PinK is Pmem-LSM-PinK: upper levels pinned in DRAM.
	PinK
)

func (v Variant) String() string {
	switch v {
	case NF:
		return "Pmem-LSM-NF"
	case F:
		return "Pmem-LSM-F"
	case PinK:
		return "Pmem-LSM-PinK"
	}
	return fmt.Sprintf("Pmem-LSM(%d)", int(v))
}

// Store is a Pmem-LSM instance.
type Store struct {
	*core.Store
	variant Variant
}

var _ kvstore.Store = (*Store)(nil)

// Open creates a Pmem-LSM store of the given variant on a fresh device,
// from a ChameleonDB-shaped geometry.
func Open(base core.Config, v Variant) (*Store, error) {
	base.DisableABI = true
	base.BloomFilters = v == F
	base.PinUppers = v == PinK
	// Modes that depend on the ABI are not part of this baseline.
	base.WriteIntensive = false
	base.GetProtect = core.GPMConfig{}
	s, err := core.Open(base)
	if err != nil {
		return nil, err
	}
	return &Store{Store: s, variant: v}, nil
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return s.variant.String() }

// Variant reports the store's read-acceleration strategy.
func (s *Store) Variant() Variant { return s.variant }
