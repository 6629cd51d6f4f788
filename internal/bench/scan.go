package bench

import (
	"fmt"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/ycsb"
)

func init() {
	register("scan", "Snapshot scan cost vs point gets (virtual time, batch amortization)", runScan)
}

// scanBatchSizes is the COUNT sweep the scan experiment drives.
var scanBatchSizes = []int{10, 100, 1000}

// runScan measures the merging iterator against the point-get path on the
// deterministic virtual clock. The store is loaded, flushed and dumped so the
// keyspace spans MemTable, ABI and dumped tables, then an overlay of fresh
// puts and deletes forces the scan to merge tiers and suppress tombstones.
//
// Each one-shot Scan call captures a lazy snapshot, so small COUNTs re-pay
// the capture cost on every page while large COUNTs amortize it across many
// keys. The amort column is that amortization factor — virtual ns/key at the
// smallest COUNT over ns/key at this one. Every cell is deterministic virtual
// time, pinned byte for byte by testdata/golden_scan.txt; a drop means
// batching stopped amortizing (e.g. the iterator re-captures per key or leaks
// per-page work into the page body).
func runScan(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	s, err := OpenStore(Chameleon, opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	c := simclock.New(0)
	loader := s.NewSession(c)
	val := make([]byte, opt.ValueSize)
	for i := int64(0); i < opt.Keys; i++ {
		if err := loader.Put(ycsb.Key(i), val); err != nil {
			return nil, err
		}
	}
	// Push the load into the persisted tiers, then write an overlay so the
	// scan exercises the full merge: fresh versions in the MemTable above
	// flushed slots, plus tombstones that must suppress dumped versions.
	if f, ok := s.(interface{ FlushAll(*simclock.Clock) error }); ok {
		if err := f.FlushAll(c); err != nil {
			return nil, err
		}
	}
	if d, ok := s.(interface{ DumpABIs(*simclock.Clock) error }); ok {
		if err := d.DumpABIs(c); err != nil {
			return nil, err
		}
	}
	var deleted int64
	for i := int64(0); i < opt.Keys; i++ {
		switch {
		case i%16 == 0:
			if err := loader.Delete(ycsb.Key(i)); err != nil {
				return nil, err
			}
			deleted++
		case i%8 == 0:
			if err := loader.Put(ycsb.Key(i), val); err != nil {
				return nil, err
			}
		}
	}
	if err := releaseSession(loader); err != nil {
		return nil, err
	}
	live := opt.Keys - deleted

	rep := &Report{
		ID:      "scan",
		Title:   "Merging-iterator scan cost vs point gets (virtual time)",
		Columns: []string{"phase", "batch", "keys", "virt_ns_per_key", "amort"},
		Notes: []string{
			fmt.Sprintf("keys=%d live=%d value=%dB; store flushed+dumped with a Mem overlay", opt.Keys, live, opt.ValueSize),
			"amort = ns/key at the smallest COUNT / ns/key at this COUNT;",
			"CI gates on the final row's amort (virtual time, portable across machines)",
		},
	}

	// Point-get baseline on the same store state.
	getClock := simclock.New(0)
	getter := s.NewSession(getClock)
	gets := opt.Ops
	if gets > 4*opt.Keys {
		gets = 4 * opt.Keys
	}
	start := getClock.Now()
	for i := int64(0); i < gets; i++ {
		k := (i * 7919) % opt.Keys
		if _, _, err := getter.Get(ycsb.Key(k)); err != nil {
			return nil, err
		}
	}
	nsPerGet := float64(getClock.Now()-start) / float64(gets)
	if err := releaseSession(getter); err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, []string{"get", "-", fmt.Sprintf("%d", gets), fmt.Sprintf("%.0f", nsPerGet), "-"})

	var smallest float64
	for _, batch := range scanBatchSizes {
		clock := simclock.New(0)
		se := s.NewSession(clock)
		sc, ok := se.(kvstore.Scanner)
		if !ok {
			return nil, fmt.Errorf("scan: store session does not implement kvstore.Scanner")
		}
		var (
			cursor uint64
			total  int64
		)
		begin := clock.Now()
		for {
			kvs, next, err := sc.Scan(cursor, batch)
			if err != nil {
				return nil, err
			}
			total += int64(len(kvs))
			if next == 0 {
				break
			}
			cursor = next
		}
		span := clock.Now() - begin
		if err := releaseSession(se); err != nil {
			return nil, err
		}
		if total != live {
			return nil, fmt.Errorf("scan: COUNT=%d returned %d keys, want %d live (lost survivor or resurrected tombstone)", batch, total, live)
		}
		nsPerKey := float64(span) / float64(total)
		if smallest == 0 {
			smallest = nsPerKey
		}
		amort := smallest / nsPerKey
		rep.Rows = append(rep.Rows, []string{
			"scan",
			fmt.Sprintf("%d", batch),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%.0f", nsPerKey),
			fmt.Sprintf("%.2f", amort),
		})
	}
	attachMetrics(rep, s)
	return []*Report{rep}, nil
}

// releaseSession drains a session's log reservation when the implementation
// exposes one (core sessions do; the baselines' are no-ops).
func releaseSession(se kvstore.Session) error {
	if r, ok := se.(interface{ Release() error }); ok {
		return r.Release()
	}
	return nil
}
