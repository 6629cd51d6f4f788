package hotcache_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/ycsb"
)

// BenchmarkReadThrough reads one pre-generated key stream from the bare
// engine and through hotcache.Wrap, at the repo benchmark's read shape: 1 M
// keys in chameleon-server's geometry (core.DefaultConfig at 64 shards), a
// cache sized for a tenth of them, zipfian (read-hot) and uniform (read-cold).
// It is the cache-off-vs-on comparison `go run ./benchmark` does not make;
// DESIGN.md §9 records its verdict. Run with -cpu 1,2.
func BenchmarkReadThrough(b *testing.B) {
	const keys = 1_000_000
	st, err := core.Open(core.ScaledConfig(64, keys, 8))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	loader := st.NewSession(simclock.New(0))
	for i := int64(0); i < keys; i++ {
		if err := loader.Put(ycsb.Key(i), []byte("8bytes!!")); err != nil {
			b.Fatal(err)
		}
	}
	releaseSession(loader)

	const streamLen = 1 << 20
	gen, rng := ycsb.NewGenerator(ycsb.C, keys, 0, 1, 1), rand.New(rand.NewSource(1))
	zipfian, uniform := make([][]byte, streamLen), make([][]byte, streamLen)
	for i := range zipfian {
		zipfian[i], uniform[i] = gen.Next().Key, ycsb.Key(rng.Int63n(keys))
	}

	cache := hotcache.New(keys / 10 * 80)
	for _, store := range []struct {
		name string
		kv   kvstore.Store
	}{{"engine", st}, {"engine+cache", hotcache.Wrap(st, cache)}} {
		for _, dist := range []struct {
			name   string
			stream [][]byte
		}{{"zipfian", zipfian}, {"uniform", uniform}} {
			n := 0 // one pass first: the cache admits this distribution's head
			readStream(b, store.kv, dist.stream, 0, func() bool { n++; return n <= streamLen })
			b.Run(store.name+"/"+dist.name, func(b *testing.B) {
				before := cache.Stats()
				var worker atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					// Each worker starts an eighth of the stream after the last.
					readStream(b, store.kv, dist.stream, int(worker.Add(1))*(streamLen/8), pb.Next)
				})
				after := cache.Stats()
				if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups > 0 {
					b.ReportMetric(float64(after.Hits-before.Hits)/float64(lookups), "hit_ratio")
				}
			})
		}
	}
}

// readStream looks stream's keys up in order from offset off, on a session of
// its own, for as long as more says to.
func readStream(b *testing.B, kv kvstore.Store, stream [][]byte, off int, more func() bool) {
	se := kv.NewSession(simclock.New(0))
	defer releaseSession(se)
	vr, buf := se.(kvstore.ValueReader), make([]byte, 0, 64)
	for i := off; more(); i++ {
		if _, ok, err := vr.GetInto(stream[i%len(stream)], buf); err != nil || !ok {
			b.Errorf("GetInto: ok=%v err=%v", ok, err)
			return
		}
	}
}
