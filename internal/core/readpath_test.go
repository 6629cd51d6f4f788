package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"chameleondb/internal/simclock"
)

// The read path is lock-free: these tests drive it with real goroutines
// (unlike the bench harness's deterministic discrete-event workers) so the
// race detector and the mutex profiler can see genuine concurrency.

func stressKey(i int) []byte { return []byte(fmt.Sprintf("rp-key-%05d", i)) }

// stressValue is the deterministic value every writer stores for a key, so a
// reader can validate any value it observes regardless of interleaving.
func stressValue(i int) []byte { return []byte(fmt.Sprintf("rp-val-%05d-%05d", i, i*7)) }

// TestShardViewFillsItsSizeClass: the view is exactly 256 bytes, so the
// allocator hands it out cache-line aligned (see shardView.buf).
func TestShardViewFillsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(shardView{}); n != 256 {
		t.Fatalf("shardView is %d bytes, want 256", n)
	}
}

// TestReadPathStress runs concurrent Get/Put/Delete workers across all
// shards, then quiesces, crashes, recovers, and repeats — the lock-free read
// path must never return a torn or stale-beyond-legality result, and the
// store must stay structurally sound across the crash cycles. Run with -race
// this is the tentpole's primary concurrency proof.
func TestReadPathStress(t *testing.T) {
	cfg := TestConfig()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 8
		keySpace  = 2048
		opsPerGor = 4000
		rounds    = 3
	)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers*2)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				se := s.NewSession(simclock.New(0)).(*Session)
				defer func() {
					if err := se.Release(); err != nil {
						errs <- err
					}
				}()
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				for op := 0; op < opsPerGor; op++ {
					i := rng.Intn(keySpace)
					switch {
					case w < workers/2: // readers
						v, ok, err := se.Get(stressKey(i))
						if err != nil {
							errs <- fmt.Errorf("get: %w", err)
							return
						}
						if ok && !bytes.Equal(v, stressValue(i)) {
							errs <- fmt.Errorf("key %d: got %q, want %q", i, v, stressValue(i))
							return
						}
					case rng.Intn(8) == 0: // occasional delete
						if err := se.Delete(stressKey(i)); err != nil {
							errs <- fmt.Errorf("delete: %w", err)
							return
						}
					default:
						if err := se.Put(stressKey(i), stressValue(i)); err != nil {
							errs <- fmt.Errorf("put: %w", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Quiesced: crash, recover, verify, spot-check.
		s.Crash()
		rc := simclock.New(0)
		if err := s.Recover(rc); err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		if err := s.VerifyIntegrity(rc); err != nil {
			t.Fatalf("round %d: verify: %v", round, err)
		}
		se := s.NewSession(simclock.New(rc.Now())).(*Session)
		for i := 0; i < keySpace; i += 97 {
			v, ok, err := se.Get(stressKey(i))
			if err != nil {
				t.Fatalf("round %d: post-recovery get: %v", round, err)
			}
			if ok && !bytes.Equal(v, stressValue(i)) {
				t.Fatalf("round %d: key %d recovered as %q, want %q", round, i, v, stressValue(i))
			}
		}
		if err := se.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().ViewPublishes == 0 {
		t.Fatal("no shard views were published during the stress run")
	}
}

// TestGetHotPathMutexFree asserts the acceptance criterion directly: with
// mutex profiling at full rate and heavy reader/writer concurrency, no
// contended mutex stack may pass through Session.Get. Writers are expected
// to contend (shard mutex) — only the get path must stay clean.
func TestGetHotPathMutexFree(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	cfg := TestConfig()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loader := s.NewSession(simclock.New(0)).(*Session)
	const keys = 1024
	for i := 0; i < keys; i++ {
		if err := loader.Put(stressKey(i), stressValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Release(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			se := s.NewSession(simclock.New(0)).(*Session)
			defer se.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 20000; op++ {
				i := rng.Intn(keys)
				if w < 6 {
					if _, _, err := se.Get(stressKey(i)); err != nil {
						t.Error(err)
						return
					}
				} else if err := se.Put(stressKey(i), stressValue(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if prof := buf.String(); strings.Contains(prof, "(*Session).Get") {
		t.Fatalf("mutex contention recorded inside Session.Get:\n%s", prof)
	}
}

// TestLog2Exact pins log2 to exact power-of-two behavior and a loud failure
// otherwise: a floor-log2 of a non-power-of-two shard count would silently
// route the top slice of the hash space to the wrong shards.
func TestLog2Exact(t *testing.T) {
	for v, want := range map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 64: 6, 1024: 10} {
		if got := log2(v); got != want {
			t.Errorf("log2(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []int{0, -4, 3, 48, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("log2(%d) did not panic", v)
				}
			}()
			log2(v)
		}()
	}
}

// TestNonPowerOfTwoShardsRejected is the config-level guard: Open must refuse
// the geometry long before log2 could mis-shard it.
func TestNonPowerOfTwoShardsRejected(t *testing.T) {
	for _, shards := range []int{3, 48, 100} {
		cfg := TestConfig()
		cfg.Shards = shards
		if _, err := Open(cfg); err == nil {
			t.Errorf("Shards=%d accepted; want validation error", shards)
		}
	}
	cfg := TestConfig()
	cfg.Shards = 16
	if _, err := Open(cfg); err != nil {
		t.Errorf("Shards=16 rejected: %v", err)
	}
}
