package bench

import (
	"fmt"
	"runtime"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/ycsb"
)

func init() {
	register("fig14tab5", "YCSB workloads: normalized throughput (Table 5 mixes)", runFig14)
}

// runFig14 reproduces Figure 14: the six YCSB workloads of Table 5 on every
// store, 16 threads, throughput normalized to Pmem-Hash. The shapes to
// reproduce: Dram-Hash highest everywhere except YCSB_D; Pmem-Hash worst on
// the write-heavy workloads; Pmem-LSM-NF worst on the read-heavy ones;
// ChameleonDB the best non-DRAM store throughout; the LSM stores tie for
// first on YCSB_D (recent keys hit the MemTable).
func runFig14(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{
		ID:      "fig14tab5",
		Title:   "YCSB throughput normalized to Pmem-Hash (absolute Mops/s for Pmem-Hash in last row)",
		Columns: []string{"store"},
	}
	for _, w := range ycsb.Workloads {
		rep.Columns = append(rep.Columns, string(w))
	}
	// Normalized per-workload against Pmem-Hash.
	results := make(map[StoreKind]map[ycsb.Workload]float64)
	for _, kind := range ComparisonSet {
		results[kind] = make(map[ycsb.Workload]float64)
		s, err := OpenStore(kind, opt)
		if err != nil {
			return nil, err
		}
		// Warm up with the full load (the paper warms with YCSB_LOAD), and
		// measure the load itself as YCSB_LOAD.
		loadDur, err := loadMeasured(s, opt, opt.Threads, nil)
		if err != nil {
			return nil, fmt.Errorf("%s load: %w", kind, err)
		}
		results[kind][ycsb.Load] = mopsVal(opt.Keys, loadDur)
		frontier := loadDur
		for _, w := range ycsb.Workloads[1:] {
			dur, err := runYCSBPhase(s, opt, w, frontier)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", kind, w, err)
			}
			frontier += dur
			results[kind][w] = mopsVal(ycsbPhaseOps(opt, w), dur)
		}
		s.Close()
		runtime.GC()
	}
	for _, kind := range ComparisonSet {
		row := []string{kind.String()}
		for _, w := range ycsb.Workloads {
			base := results[PmemHash][w]
			if base == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", results[kind][w]/base))
		}
		rep.Rows = append(rep.Rows, row)
	}
	abs := []string{"Pmem-Hash (Mops/s)"}
	for _, w := range ycsb.Workloads {
		abs = append(abs, fmt.Sprintf("%.2f", results[PmemHash][w]))
	}
	rep.Rows = append(rep.Rows, abs)
	rep.Notes = []string{"YCSB_E (range scan) excluded: hashed-key stores do not support scans (paper Section 3.4)"}
	return []*Report{rep}, nil
}

// ycsbPhaseOps returns the operation count for a workload phase: YCSB_D is
// a smaller burst of reads for the most recently inserted keys, as in the
// paper (10K gets right after the load).
func ycsbPhaseOps(opt Options, w ycsb.Workload) int64 {
	if w != ycsb.D {
		return opt.Ops
	}
	ops := opt.Ops / 10
	if ops < 10000 {
		ops = 10000
	}
	return ops
}

// runYCSBPhase executes one workload phase over a warmed store.
func runYCSBPhase(s kvstore.Store, opt Options, w ycsb.Workload, start int64) (int64, error) {
	setConcurrency(s, opt.Threads)
	ops := ycsbPhaseOps(opt, w)
	per := ops / int64(opt.Threads)
	val := make([]byte, opt.ValueSize)
	g, err := workers(s, opt.Threads, start, func(worker int, se kvstore.Session) stepper {
		gen := ycsb.NewGenerator(w, opt.Keys, worker, opt.Threads, opt.Seed+int64(w[len(w)-1]))
		return countingStepper(per, func(i int64) error {
			op := gen.Next()
			switch op.Kind {
			case ycsb.OpRead:
				_, _, err := se.Get(op.Key)
				return err
			case ycsb.OpUpdate, ycsb.OpInsert:
				return se.Put(op.Key, val)
			case ycsb.OpReadModifyWrite:
				if _, _, err := se.Get(op.Key); err != nil {
					return err
				}
				return se.Put(op.Key, val)
			}
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	return g.Makespan(), nil
}
