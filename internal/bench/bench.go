// Package bench regenerates every table and figure of the ChameleonDB
// paper's evaluation (Section 3). Each experiment builds the stores it
// needs at a laptop-scale geometry (EXPERIMENTS.md records the scaling),
// drives them with worker goroutines over virtual-time sessions, and prints
// the same rows or series the paper reports. Absolute numbers come from the
// simulated device model; the reproduction target is the shape — who wins,
// by what factor, where crossovers fall.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"chameleondb/internal/baselines/dramhash"
	"chameleondb/internal/baselines/pmemhash"
	"chameleondb/internal/baselines/pmemlsm"
	"chameleondb/internal/core"
	"chameleondb/internal/device"
	"chameleondb/internal/histogram"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
)

// Options tune an experiment run.
type Options struct {
	// Keys is the dataset size (the paper loads 1 billion; the default
	// laptop scale is 1 million).
	Keys int64
	// ValueSize is the value size in bytes (the paper's default is 8).
	ValueSize int
	// Threads is the maximum worker count (the paper's machine has 16
	// hyperthreads; thread sweeps go 1..Threads).
	Threads int
	// Ops is the measured-phase operation count (requests after loading).
	Ops int64
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{Keys: 1_000_000, ValueSize: 8, Threads: 16, Ops: 1_000_000, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Keys <= 0 {
		o.Keys = d.Keys
	}
	if o.ValueSize <= 0 {
		o.ValueSize = d.ValueSize
	}
	if o.Threads <= 0 {
		o.Threads = d.Threads
	}
	if o.Ops <= 0 {
		o.Ops = d.Ops
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Report is one regenerated table or figure series.
type Report struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Metrics is the store's observability snapshot at the end of the
	// experiment phase, when the store exposes a registry (chameleon-bench
	// -json emits it into the figure JSON).
	Metrics []obs.Snapshot `json:"metrics,omitempty"`
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Columns, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// StoreKind identifies a store under evaluation.
type StoreKind int

// The paper's comparison set (Section 3.2).
const (
	Chameleon StoreKind = iota
	PmemLSMPinK
	PmemLSMNF
	PmemLSMF
	PmemHash
	DramHash
)

// ComparisonSet is the store order used in the paper's tables.
var ComparisonSet = []StoreKind{Chameleon, PmemLSMPinK, PmemLSMNF, PmemLSMF, PmemHash, DramHash}

func (k StoreKind) String() string {
	switch k {
	case Chameleon:
		return "ChameleonDB"
	case PmemLSMPinK:
		return "Pmem-LSM-PinK"
	case PmemLSMNF:
		return "Pmem-LSM-NF"
	case PmemLSMF:
		return "Pmem-LSM-F"
	case PmemHash:
		return "Pmem-Hash"
	case DramHash:
		return "Dram-Hash"
	}
	return "unknown"
}

// chameleonConfig returns the bench-scale ChameleonDB geometry: the Table 1
// proportions (4 levels, ratio 4, randomized 0.65-0.85 load factors) with
// shard count and table sizes shrunk so `keys` keys exercise the full level
// hierarchy — the ABI covers the upper ~quarter of the index, most gets land
// in the last level, exactly as at paper scale.
func chameleonConfig(keys int64, valueSize int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = 64
	cfg.MemTableSlots = 64
	cfg.ABISlots = 0 // derive from geometry
	// 40 B per entry beyond the value: a 16 B log-entry header, a ~16 B key
	// and 8 B of slack. The experiments' arena geometry derives from it, so
	// it does not track the header size.
	entry := int64(40 + valueSize)
	logNeed := 6 * keys * entry
	if logNeed < 16<<20 {
		logNeed = 16 << 20
	}
	idxNeed := 24*keys*16 + int64(cfg.Shards)<<16
	if idxNeed < 64<<20 {
		idxNeed = 64 << 20
	}
	cfg.LogBytes = logNeed
	cfg.ArenaBytes = logNeed + idxNeed
	return cfg
}

// OpenStore builds a store of the given kind sized for the options.
func OpenStore(kind StoreKind, opt Options) (kvstore.Store, error) {
	switch kind {
	case Chameleon:
		return core.Open(chameleonConfig(opt.Keys, opt.ValueSize))
	case PmemLSMPinK:
		return pmemlsm.Open(chameleonConfig(opt.Keys, opt.ValueSize), pmemlsm.PinK)
	case PmemLSMNF:
		return pmemlsm.Open(chameleonConfig(opt.Keys, opt.ValueSize), pmemlsm.NF)
	case PmemLSMF:
		return pmemlsm.Open(chameleonConfig(opt.Keys, opt.ValueSize), pmemlsm.F)
	case PmemHash:
		cfg := pmemhash.DefaultConfig()
		entry := int64(40 + opt.ValueSize)
		cfg.LogBytes = 6 * opt.Keys * entry
		if cfg.LogBytes < 16<<20 {
			cfg.LogBytes = 16 << 20
		}
		cfg.ArenaBytes = cfg.LogBytes + 64*opt.Keys + (256 << 20)
		return pmemhash.Open(cfg)
	case DramHash:
		cfg := dramhash.DefaultConfig()
		entry := int64(40 + opt.ValueSize)
		cfg.LogBytes = 6 * opt.Keys * entry
		if cfg.LogBytes < 16<<20 {
			cfg.LogBytes = 16 << 20
		}
		cfg.ArenaBytes = cfg.LogBytes + (64 << 20)
		return dramhash.Open(cfg)
	}
	return nil, fmt.Errorf("bench: unknown store kind %d", kind)
}

// attachMetrics appends the store's registry snapshot to the report when the
// store exposes one (ChameleonDB and every baseline with generic counters).
func attachMetrics(rep *Report, s kvstore.Store) {
	if p, ok := s.(obs.Provider); ok {
		if r := p.Registry(); r != nil {
			rep.Metrics = append(rep.Metrics, r.Snapshot())
		}
	}
}

// setConcurrency positions the store's device on its contention curve.
func setConcurrency(s kvstore.Store, threads int) {
	if d, ok := s.(interface{ Device() *device.Device }); ok {
		d.Device().SetConcurrency(threads)
	}
}

// mops formats ops/durationNs as millions of operations per second.
func mops(ops int64, durNs int64) string {
	if durNs <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(ops)/float64(durNs)*1000)
}

func mopsVal(ops int64, durNs int64) float64 {
	if durNs <= 0 {
		return 0
	}
	return float64(ops) / float64(durNs) * 1000
}

// gbps formats bytes/durationNs as GB/s (1e9 bytes per second).
func gbps(bytes, durNs int64) string {
	if durNs <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(bytes)/float64(durNs))
}

// cdfSummary renders a latency CDF as the fixed-fraction series the paper's
// CDF figures plot.
func cdfSummary(h *histogram.Histogram) []string {
	fracs := []float64{10, 25, 50, 75, 90, 99}
	out := make([]string, len(fracs))
	for i, q := range fracs {
		out[i] = fmt.Sprintf("%d", h.Percentile(q))
	}
	return out
}

var cdfColumns = []string{"p10(ns)", "p25(ns)", "p50(ns)", "p75(ns)", "p90(ns)", "p99(ns)"}

// Experiment is a registered regenerator for one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) ([]*Report, error)
}

var registry []Experiment

func register(id, title string, run func(Options) ([]*Report, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments lists the registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
