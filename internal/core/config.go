// Package core implements ChameleonDB (Zhang et al., EuroSys'21): a
// key-value store for Optane persistent memory that combines an LSM-style
// multi-level persistent index (for batched, amplification-free writes and
// fast restart) with an in-DRAM Auxiliary Bypass Index (for O(1) reads that
// bypass the levels). See DESIGN.md section 3 for the paper-to-code map.
package core

import (
	"fmt"
	"math/rand"
	"runtime"
)

// CompactionMode selects how upper-level compactions cascade (Section 3.5 /
// Figure 15 of the paper).
type CompactionMode int

const (
	// DirectCompaction merges all cascading levels in one pass (Figure 5b),
	// the ChameleonDB default.
	DirectCompaction CompactionMode = iota
	// LevelByLevel performs the classic two-adjacent-levels cascade
	// (Figure 5a); retained for the Figure 15 ablation.
	LevelByLevel
)

func (m CompactionMode) String() string {
	if m == DirectCompaction {
		return "direct"
	}
	return "level-by-level"
}

// GPMConfig configures the dynamic Get-Protect Mode (Section 2.4).
type GPMConfig struct {
	// Enabled turns the dynamic monitor on.
	Enabled bool
	// EnterThresholdNs: when the windowed P99 get latency exceeds this,
	// compactions and flushes are suspended (2000 ns in the paper's
	// Figure 16 experiment).
	EnterThresholdNs int64
	// ExitThresholdNs: GPM is cancelled when the windowed P99 drops below
	// this. Defaults to EnterThresholdNs if zero.
	ExitThresholdNs int64
	// MaxDumps bounds how many ABI dumps may sit unmerged in the Pmem
	// (one by default, per Section 2.4).
	MaxDumps int
	// WindowSize is the number of recent get latencies in the monitor
	// window.
	WindowSize int
	// SampleEvery records one in N get latencies into the monitor.
	SampleEvery int
}

// Config parametrizes a ChameleonDB instance. The zero value is not valid;
// start from DefaultConfig (the paper's Table 1 geometry) or TestConfig and
// adjust.
type Config struct {
	// Shards is the number of index shards (power of two). Table 1: 16384.
	Shards int
	// MemTableSlots is each shard's MemTable capacity in 16 B slots (power
	// of two). Table 1: 8 KB per shard = 512 slots.
	MemTableSlots int
	// Levels is the number of LSM levels including the last. Table 1: 4.
	Levels int
	// Ratio is the between-level ratio r. Table 1: 4.
	Ratio int
	// LoadFactorMin/Max bound the randomized per-shard MemTable load-factor
	// thresholds (Section 2.5). Table 1: 0.65–0.85.
	LoadFactorMin float64
	LoadFactorMax float64
	// ABISlots is the capacity in slots each shard's Auxiliary Bypass Index
	// grows to (Table 1: 512 KB = 32768 slots). An ABI starts at one
	// MemTable's worth and doubles as it fills, never shrinking. Zero derives
	// the cap from the upper-level geometry.
	ABISlots int

	// ArenaBytes sizes the simulated pmem arena; LogBytes the value-log
	// region inside it.
	ArenaBytes int64
	LogBytes   int64

	// CompactionMode selects Direct (default) or LevelByLevel compaction.
	CompactionMode CompactionMode
	// WriteIntensive enables Write-Intensive Mode (Section 2.3): MemTables
	// spill into the ABI without persisting L0 tables, trading restart time
	// for put throughput.
	WriteIntensive bool
	// GetProtect configures the dynamic Get-Protect Mode.
	GetProtect GPMConfig

	// DisableABI is an ablation switch: gets walk the persisted levels
	// (ChameleonDB degenerates to Pmem-LSM-NF read behaviour).
	DisableABI bool
	// BloomFilters attaches an in-DRAM bloom filter to every persisted
	// table (requires DisableABI): the Pmem-LSM-F baseline of Section 3.2.
	BloomFilters bool
	// PinUppers keeps an in-DRAM copy of every upper-level table (requires
	// DisableABI, exclusive with BloomFilters): the Pmem-LSM-PinK baseline.
	PinUppers bool
	// UniformLoadFactor is an ablation switch: every shard uses the same
	// threshold ((min+max)/2), recreating the compaction bursts randomized
	// load factors exist to prevent.
	UniformLoadFactor bool

	// MaintenanceWorkers sizes the background maintenance pool (Section 3.3
	// pairs every put thread with a compaction thread; the pool is the
	// store-level version of that pairing, bounded because a handful of
	// concurrent writers already saturates Optane write bandwidth). With
	// workers, a put that fills its MemTable freezes the table and enqueues
	// the flush/spill/compaction as a background job instead of running the
	// merge inline under the shard lock. Zero (the default) runs the same
	// jobs inline on the writer's clock, which the deterministic virtual-time
	// experiments rely on. Use DefaultMaintenanceWorkers for a serving-shaped
	// default.
	MaintenanceWorkers int

	// TraceEvents is the capacity of the in-DRAM structured event trace ring
	// (flushes, spills, compactions, GPM transitions, GC, crash/recovery).
	// Zero disables tracing; events then cost nothing at all.
	TraceEvents int

	// Seed drives the load-factor randomization.
	Seed int64
}

// DefaultConfig returns the paper's Table 1 configuration. Loaded to its
// design, its ABIs alone grow to ~8 GB of DRAM — use ScaledConfig for
// anything that has to fit a development machine.
func DefaultConfig() Config {
	return Config{
		Shards:         16384,
		MemTableSlots:  512, // 8 KB
		Levels:         4,
		Ratio:          4,
		LoadFactorMin:  0.65,
		LoadFactorMax:  0.85,
		ABISlots:       32768, // 512 KB
		ArenaBytes:     64 << 30,
		LogBytes:       48 << 30,
		CompactionMode: DirectCompaction,
		GetProtect: GPMConfig{
			EnterThresholdNs: 2000,
			MaxDumps:         1,
			WindowSize:       4096,
			SampleEvery:      16,
		},
		Seed: 1,
	}
}

// ScaledConfig returns the Table 1 geometry shrunk to `shards` shards with
// the same per-shard proportions, sized to hold about `keys` keys with
// value sizes around `valueSize`. The benchmark harness uses it to run
// paper-shaped experiments at laptop scale; EXPERIMENTS.md records the
// scaling per experiment.
func ScaledConfig(shards int, keys int64, valueSize int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	// 40 B per entry beyond the value: a 16 B log-entry header, a ~16 B key
	// and 8 B of slack. The experiments' arena geometry derives from it, so
	// it does not track the header size.
	entryBytes := int64(40 + valueSize)
	logNeed := 4 * keys * entryBytes // updates and compaction slack
	if logNeed < 8<<20 {
		logNeed = 8 << 20
	}
	idxNeed := 8*keys*16 + int64(shards)*64<<10
	cfg.LogBytes = logNeed
	cfg.ArenaBytes = logNeed + idxNeed + (32 << 20)
	return cfg
}

// TestConfig is a tiny geometry for unit tests: 8 shards, 64-slot MemTables,
// 3 levels, plenty of arena.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.MemTableSlots = 64
	cfg.Levels = 3
	cfg.Ratio = 4
	cfg.ABISlots = 0 // derive
	cfg.ArenaBytes = 64 << 20
	cfg.LogBytes = 32 << 20
	return cfg
}

// abiFullFraction is the ABI load factor at which a flush or spill first
// clears the ABI: by a last-level compaction, or a dump under Get-Protect
// Mode.
const abiFullFraction = 0.90

// abiStartSlots is the capacity a fresh ABI starts at: one MemTable's worth,
// or the cap when that is smaller.
func (c Config) abiStartSlots() int { return min(c.MemTableSlots, c.ABISlots) }

// upperCapacitySlots returns the total slot capacity of all upper levels of
// one shard: r tables at L0 plus (r-1) tables at each of L1..L(l-2).
func (c Config) upperCapacitySlots() int {
	total := c.Ratio * c.MemTableSlots // L0: r tables of MemTable size
	size := c.MemTableSlots
	for lvl := 1; lvl <= c.Levels-2; lvl++ {
		size *= c.Ratio
		total += (c.Ratio - 1) * size
	}
	return total
}

// lastLevelSlots returns the designed last-level table capacity:
// r^(levels-1) MemTables.
func (c Config) lastLevelSlots() int {
	s := c.MemTableSlots
	for i := 0; i < c.Levels-1; i++ {
		s *= c.Ratio
	}
	return s
}

func (c *Config) validate() error {
	if c.Shards <= 0 || c.Shards&(c.Shards-1) != 0 {
		return fmt.Errorf("core: Shards must be a positive power of two, got %d", c.Shards)
	}
	if c.MemTableSlots < 8 || c.MemTableSlots&(c.MemTableSlots-1) != 0 {
		return fmt.Errorf("core: MemTableSlots must be a power of two >= 8, got %d", c.MemTableSlots)
	}
	if c.Levels < 2 {
		return fmt.Errorf("core: need at least 2 levels, got %d", c.Levels)
	}
	if c.Ratio < 2 {
		return fmt.Errorf("core: Ratio must be >= 2, got %d", c.Ratio)
	}
	if c.LoadFactorMin <= 0 || c.LoadFactorMax > 1 || c.LoadFactorMin > c.LoadFactorMax {
		return fmt.Errorf("core: invalid load factor range [%v, %v]", c.LoadFactorMin, c.LoadFactorMax)
	}
	if c.ABISlots == 0 {
		// Size the ABI to hold the full upper levels at max load factor,
		// rounded to a power of two, as Table 1's geometry does.
		need := int(float64(c.upperCapacitySlots()) * c.LoadFactorMax / abiFullFraction)
		p := 8
		for p < need {
			p <<= 1
		}
		c.ABISlots = p
	}
	if c.ABISlots&(c.ABISlots-1) != 0 {
		return fmt.Errorf("core: ABISlots must be a power of two, got %d", c.ABISlots)
	}
	if (c.BloomFilters || c.PinUppers) && !c.DisableABI {
		return fmt.Errorf("core: BloomFilters/PinUppers are Pmem-LSM baseline options and require DisableABI")
	}
	if c.BloomFilters && c.PinUppers {
		return fmt.Errorf("core: BloomFilters and PinUppers are mutually exclusive (PinK uses no filters)")
	}
	if c.GetProtect.Enabled {
		if c.GetProtect.EnterThresholdNs <= 0 {
			return fmt.Errorf("core: GetProtect enabled with no EnterThresholdNs")
		}
		if c.GetProtect.ExitThresholdNs == 0 {
			c.GetProtect.ExitThresholdNs = c.GetProtect.EnterThresholdNs
		}
		if c.GetProtect.MaxDumps <= 0 {
			c.GetProtect.MaxDumps = 1
		}
		if c.GetProtect.WindowSize <= 0 {
			c.GetProtect.WindowSize = 4096
		}
		if c.GetProtect.SampleEvery <= 0 {
			c.GetProtect.SampleEvery = 16
		}
	}
	if c.MaintenanceWorkers < 0 {
		return fmt.Errorf("core: MaintenanceWorkers must be >= 0, got %d", c.MaintenanceWorkers)
	}
	if c.ArenaBytes < 1<<20 || c.LogBytes < 1<<16 || c.LogBytes >= c.ArenaBytes {
		return fmt.Errorf("core: invalid arena/log sizing (%d / %d)", c.ArenaBytes, c.LogBytes)
	}
	return nil
}

// DefaultMaintenanceWorkers returns the serving-shaped pool size for a shard
// count: min(shards, GOMAXPROCS). More workers than cores cannot persist
// concurrently anyway (the iMC-contention findings the pool bound mirrors),
// and more workers than shards can never be busy at once because a shard's
// jobs run sequentially. Deterministic harnesses should keep the config
// default of zero (synchronous maintenance) instead.
func DefaultMaintenanceWorkers(shards int) int {
	n := runtime.GOMAXPROCS(0)
	if shards < n {
		n = shards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ValidateConfig normalizes and validates a configuration in place (deriving
// ABISlots and defaulting thresholds), without opening a store. The
// benchmark harness uses it to compute geometry-dependent workload sizes.
func ValidateConfig(c *Config) error { return c.validate() }

// loadFactorFor draws shard i's MemTable load-factor threshold.
func (c Config) loadFactorFor(i int) float64 {
	if c.UniformLoadFactor || c.LoadFactorMin == c.LoadFactorMax {
		return (c.LoadFactorMin + c.LoadFactorMax) / 2
	}
	r := rand.New(rand.NewSource(c.Seed + int64(i)*7919))
	return c.LoadFactorMin + r.Float64()*(c.LoadFactorMax-c.LoadFactorMin)
}
