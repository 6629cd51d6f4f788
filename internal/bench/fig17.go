package bench

import (
	"fmt"
	"math/rand"
	"runtime"

	"chameleondb/internal/baselines/matrixkv"
	"chameleondb/internal/baselines/novelsm"
	"chameleondb/internal/core"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/ycsb"
)

func init() {
	register("fig17", "ChameleonDB vs NoveLSM vs MatrixKV: throughput, media traffic, bandwidth by value size", runFig17)
}

// fig17Store opens one of the three contenders on its own device, sized for
// the experiment.
func fig17Store(name string, totalBytes int64, valueSize int) (kvstore.Store, *device.Device, error) {
	dev := device.New(device.OptanePmem)
	arena := 8*totalBytes + (512 << 20)
	if name == "ChameleonDB" {
		keys := totalBytes / int64(valueSize+16)
		cfg := chameleonConfig(keys, valueSize)
		cfg.LogBytes = 4*totalBytes + (64 << 20)
		cfg.ArenaBytes = cfg.LogBytes + 24*keys*16 + (128 << 20)
		s, err := core.OpenOn(cfg, dev)
		return s, dev, err
	}
	// NoveLSM and MatrixKV scale the memtable with the dataset so the leveled
	// hierarchy cascades as deeply as at paper scale (64 GB through 128 MB
	// memtables ~ 512 memtable generations), and get the paper's 8 GB data
	// cache against 64 GB written: 1/8. Their level geometry is constants in
	// their packages.
	memTable := max(totalBytes/128, 64<<10)
	cache := totalBytes / 8
	switch name {
	case "NoveLSM":
		s, err := novelsm.OpenOn(novelsm.Config{
			MemTableBytes: memTable,
			ArenaBytes:    arena,
			CacheBytes:    cache,
		}, dev)
		return s, dev, err
	case "MatrixKV":
		s, err := matrixkv.OpenOn(matrixkv.Config{
			MemTableBytes: memTable,
			ArenaBytes:    arena,
			WALBytes:      2*totalBytes + (64 << 20),
			CacheBytes:    cache,
		}, dev)
		return s, dev, err
	}
	return nil, nil, fmt.Errorf("bench: unknown fig17 store %s", name)
}

// runFig17 reproduces Figure 17 (Section 3.7): write a fixed volume of data
// with varying value sizes, then read a fixed volume back, on ChameleonDB,
// NoveLSM, and MatrixKV — all levels in the Pmem, one worker (the paper runs
// a single compaction thread for fairness with NoveLSM). Reported per store
// and value size: put throughput, media bytes written (the ipmwatch numbers
// of 17(b)), write bandwidth, get throughput, media bytes read, read
// bandwidth. Shapes: ChameleonDB ahead on puts by 1-2 orders of magnitude
// (NoveLSM and MatrixKV rewrite values in every compaction and NoveLSM
// persists its memtable with small RMW writes); media written 8-15x
// ChameleonDB's; gets ahead similarly (hash probe vs multi-run search).
func runFig17(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	// The paper writes 64 GB and reads 16 GB; default laptop scale is
	// keys*valueSize-derived (~64 MB written per value size).
	totalWrite := opt.Keys / 16 * 1024
	if totalWrite < 16<<20 {
		totalWrite = 16 << 20
	}
	totalRead := totalWrite / 4
	valueSizes := []int{64, 256, 1024, 4096, 16384, 65536}
	stores := []string{"ChameleonDB", "NoveLSM", "MatrixKV"}

	putTput := &Report{ID: "fig17a", Title: "Put throughput (Kops/s) by value size", Columns: []string{"store"}}
	mediaW := &Report{ID: "fig17b", Title: "Media bytes written per user byte (ipmwatch write amplification)", Columns: []string{"store"}}
	wbw := &Report{ID: "fig17c", Title: "Write bandwidth to Pmem (GB/s)", Columns: []string{"store"}}
	getTput := &Report{ID: "fig17d", Title: "Get throughput (Kops/s) by value size", Columns: []string{"store"}}
	mediaR := &Report{ID: "fig17e", Title: "Media bytes read per get", Columns: []string{"store"}}
	rbw := &Report{ID: "fig17f", Title: "Read bandwidth from Pmem (GB/s)", Columns: []string{"store"}}
	all := []*Report{putTput, mediaW, wbw, getTput, mediaR, rbw}
	for _, r := range all {
		for _, vs := range valueSizes {
			r.Columns = append(r.Columns, fmt.Sprintf("%dB", vs))
		}
	}

	rows := map[string]map[*Report][]string{}
	for _, name := range stores {
		rows[name] = map[*Report][]string{}
		for _, r := range all {
			rows[name][r] = []string{name}
		}
		for _, vs := range valueSizes {
			s, dev, err := fig17Store(name, totalWrite, vs)
			if err != nil {
				return nil, err
			}
			keys := totalWrite / int64(vs+16)
			if keys < 100 {
				keys = 100
			}
			// Put phase: single worker, as in the paper's one-compaction-
			// thread setup.
			se := s.NewSession(simclock.New(0))
			val := make([]byte, vs)
			for i := int64(0); i < keys; i++ {
				if err := se.Put(ycsb.Key(i), val); err != nil {
					return nil, fmt.Errorf("%s vs=%d put %d: %w", name, vs, i, err)
				}
			}
			if err := se.Flush(); err != nil {
				return nil, err
			}
			putDur := se.Clock().Now()
			st := dev.Stats()
			user := keys * int64(vs+8)
			rows[name][putTput] = append(rows[name][putTput], fmt.Sprintf("%.1f", float64(keys)/float64(putDur)*1e6))
			rows[name][mediaW] = append(rows[name][mediaW], fmt.Sprintf("%.2f", float64(st.MediaBytesWritten)/float64(user)))
			rows[name][wbw] = append(rows[name][wbw], gbps(st.MediaBytesWritten, putDur))

			// Get phase: random reads of a fixed volume.
			gets := totalRead / int64(vs+16)
			if gets < 100 {
				gets = 100
			}
			rng := rand.New(rand.NewSource(opt.Seed))
			gc := simclock.New(putDur)
			ge := s.NewSession(gc)
			r0 := dev.Stats().MediaBytesRead
			g0 := gc.Now()
			for i := int64(0); i < gets; i++ {
				key := ycsb.Key(rng.Int63n(keys))
				if _, ok, err := s2err(ge.Get(key)); err != nil {
					return nil, fmt.Errorf("%s vs=%d get: %w", name, vs, err)
				} else if !ok {
					return nil, fmt.Errorf("%s vs=%d: key missing", name, vs)
				}
			}
			getDur := gc.Now() - g0
			readBytes := dev.Stats().MediaBytesRead - r0
			rows[name][getTput] = append(rows[name][getTput], fmt.Sprintf("%.1f", float64(gets)/float64(getDur)*1e6))
			rows[name][mediaR] = append(rows[name][mediaR], fmt.Sprintf("%d", readBytes/gets))
			rows[name][rbw] = append(rows[name][rbw], gbps(readBytes, getDur))
			s.Close()
			runtime.GC()
		}
	}
	for _, r := range all {
		for _, name := range stores {
			r.Rows = append(r.Rows, rows[name][r])
		}
	}
	putTput.Notes = []string{"paper: ChameleonDB up to 44x NoveLSM, 19x MatrixKV on puts; 29x/17x on gets"}
	return all, nil
}

func s2err(v []byte, ok bool, err error) ([]byte, bool, error) { return v, ok, err }
