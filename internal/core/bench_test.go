package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"chameleondb/internal/simclock"
)

// Wall-clock microbenchmarks for the lock-free read path. The bench harness's
// experiments measure virtual time on the simulated device; these measure
// real time on real goroutines, which is the only way lock contention shows
// up. BenchmarkMixedParallel at -cpu 8 is the acceptance measurement for the
// read-path work: against the pre-change (shard-mutex) tree it must show at
// least 2x the get throughput.

func benchStore(b *testing.B, keys int) *Store {
	return benchStoreWorkers(b, keys, 0)
}

// benchStoreWorkers builds the bench geometry with an optional maintenance
// pool; workers=0 is the synchronous store the pre-pipeline benchmarks used.
func benchStoreWorkers(b *testing.B, keys, workers int) *Store {
	b.Helper()
	cfg := TestConfig()
	cfg.Shards = 16
	cfg.MemTableSlots = 256
	cfg.ArenaBytes = 512 << 20
	cfg.LogBytes = 256 << 20
	cfg.MaintenanceWorkers = workers
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	se := s.NewSession(simclock.New(0)).(*Session)
	for i := 0; i < keys; i++ {
		if err := se.Put(stressKey(i), stressValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := se.Release(); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkGet(b *testing.B) {
	const keys = 4096
	s := benchStore(b, keys)
	se := s.NewSession(simclock.New(0)).(*Session)
	defer se.Release()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := se.Get(stressKey(rng.Intn(keys))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	const keys = 4096
	s := benchStore(b, keys)
	se := s.NewSession(simclock.New(0)).(*Session)
	defer se.Release()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := se.Put(stressKey(rng.Intn(keys)), stressValue(rng.Intn(keys))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetParallel scales pure reads across GOMAXPROCS goroutines, each
// with its own session — run with -cpu 1,2,4,8 for the read-scaling curve.
func BenchmarkGetParallel(b *testing.B) {
	const keys = 4096
	s := benchStore(b, keys)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		se := s.NewSession(simclock.New(0)).(*Session)
		defer se.Release()
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if _, _, err := se.Get(stressKey(rng.Intn(keys))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// putModes are the write-path configurations the parallel put benchmarks
// compare: maintenance inline under the shard lock (sync) vs the background
// pool (async). The async/sync ratio is the wall-clock win of the pipeline.
var putModes = []struct {
	name    string
	workers func() int
}{
	{"sync", func() int { return 0 }},
	{"async", func() int { return DefaultMaintenanceWorkers(16) }},
}

// BenchmarkPutParallel scales update puts across parallel sessions under
// steady compaction debt: the keyspace is preloaded so every MemTable cycle
// flushes into populated levels, and updates keep the cycles coming. In sync
// mode each flush/merge runs inline under the shard lock, stalling every
// other writer on that shard for its wall-clock duration; in async mode the
// put freezes the table and moves on.
func BenchmarkPutParallel(b *testing.B) {
	const keys = 16384
	for _, mode := range putModes {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStoreWorkers(b, keys, mode.workers())
			defer s.Close()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				se := s.NewSession(simclock.New(0)).(*Session)
				defer se.Release()
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					i := rng.Intn(keys)
					if err := se.Put(stressKey(i), stressValue(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMixedWriteHeavy is a 1:1 get:put mix — the mixed-workload shape
// whose put p99 the maintenance pipeline targets: reads are lock-free either
// way, so any sync/async gap comes from writers no longer queueing behind a
// neighbour's inline compaction.
func BenchmarkMixedWriteHeavy(b *testing.B) {
	const keys = 16384
	for _, mode := range putModes {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStoreWorkers(b, keys, mode.workers())
			defer s.Close()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				se := s.NewSession(simclock.New(0)).(*Session)
				defer se.Release()
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					i := rng.Intn(keys)
					if rng.Intn(2) == 0 {
						if err := se.Put(stressKey(i), stressValue(i)); err != nil {
							b.Fatal(err)
						}
					} else if _, _, err := se.Get(stressKey(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMixedParallel is a 7:1 get:put mix across parallel sessions — the
// shape where the old shard mutex hurt most: a single writer stalled every
// reader on the same shard.
func BenchmarkMixedParallel(b *testing.B) {
	const keys = 4096
	s := benchStore(b, keys)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		se := s.NewSession(simclock.New(0)).(*Session)
		defer se.Release()
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			i := rng.Intn(keys)
			if rng.Intn(8) == 0 {
				if err := se.Put(stressKey(i), stressValue(i)); err != nil {
					b.Fatal(err)
				}
			} else if _, _, err := se.Get(stressKey(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
