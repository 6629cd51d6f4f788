package hashtable

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetBlocksAcrossReset forces a reader to interleave with an in-flight
// Reset via the reset hook: the hook parks the writer mid-clear (seqlock
// held, slots partially zeroed), and a Get started in that window must not
// return until the Reset completes — and must then report the post-Reset
// state, never a torn mix of old hash and cleared reference.
func TestGetBlocksAcrossReset(t *testing.T) {
	m := NewMem(64)
	h := uint64(0xdeadbeef)
	m.Insert(h, MakeRef(100, false))

	started := make(chan struct{})
	release := make(chan struct{})
	m.SetWriteHook(func() {
		close(started)
		<-release
	})
	resetDone := make(chan struct{})
	go func() {
		m.Reset()
		close(resetDone)
	}()
	<-started

	got := make(chan bool, 1)
	go func() {
		_, _, ok := m.Get(h)
		got <- ok
	}()
	select {
	case <-got:
		t.Fatal("Get returned while a Reset held the seqlock")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	<-resetDone
	if ok := <-got; ok {
		t.Fatal("entry still visible after Reset")
	}
}

// TestGetNeverTearsAcrossResetCycles hammers a single slot with alternating
// Reset+Insert cycles of two keys that collide on the same slot index, while
// readers continuously probe one of them. A torn read would pair key A's
// probe with key B's freshly recycled slot contents; the only legal results
// are A's reference or a miss. Run under -race this also proves the
// publication ordering is a happens-before edge, not a lucky interleaving.
func TestGetNeverTearsAcrossResetCycles(t *testing.T) {
	m := NewMem(8)
	mask := uint64(m.Cap() - 1)
	// Two hashes landing on the same slot.
	hA := uint64(0x1111_0003)
	hB := hA + (mask + 1)
	const refA, refB = uint64(100), uint64(200)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref, _, ok := m.Get(hA)
				if ok && ref != refA {
					t.Errorf("torn read: hash %#x returned ref %d, want %d or miss", hA, ref, refA)
					return
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		m.Reset()
		if i%2 == 0 {
			m.Insert(hA, refA)
		} else {
			m.Insert(hB, refB)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentReadersSeeInsertedEntries checks the single-writer /
// multi-reader publication ordering without Resets: once Insert returns, all
// readers must find the entry, and a reader racing the insert must see
// either a miss or the complete slot.
func TestConcurrentReadersSeeInsertedEntries(t *testing.T) {
	m := NewMem(1024)
	const n = 512
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := seed
				ref, _, ok := m.Get(h)
				if ok && ref != h*7 {
					t.Errorf("hash %#x returned ref %d, want %d", h, ref, h*7)
					return
				}
				seed = seed%n + 1
			}
		}(uint64(r + 1))
	}
	for i := uint64(1); i <= n; i++ {
		m.Insert(i, i*7)
	}
	// After the writer is done every entry must be visible.
	for i := uint64(1); i <= n; i++ {
		ref, _, ok := m.Get(i)
		if !ok || ref != i*7 {
			t.Fatalf("hash %#x: got (%d,%v), want (%d,true)", i, ref, ok, i*7)
		}
	}
	close(stop)
	wg.Wait()
}

// TestGetNeverTearsAcrossDisplacement: one writer fills a two-choice Mem
// past nine tenths, where inserts displace entries, while readers Get every
// hash already inserted and the one being inserted. A present hash must never
// miss, and no hash may read back a reference other than its own. The write
// hook parks the writer inside displacements — seq odd, a moved slot's hash
// written and its reference not yet — and Gets the hash being inserted from
// another goroutine meanwhile: a Get that did not wait out the displacement
// would pair that hash with the reference its slot held before. Run with
// -race.
func TestGetNeverTearsAcrossDisplacement(t *testing.T) {
	const capacity, readers, maxParks = 1040, 4, 200
	m := NewFittedMem(capacity)
	refOf := func(h uint64) uint64 { return h>>1 | 1 }
	r := rand.New(rand.NewSource(1))
	var hs []uint64
	for seen := map[uint64]bool{}; len(hs) < capacity; {
		if h := r.Uint64(); h != 0 && !seen[h] {
			seen[h] = true
			hs = append(hs, h)
		}
	}
	var published atomic.Int64 // hs[:published] are present
	var inflight atomic.Uint64 // the hash being inserted; 0 between inserts
	errs := make(chan error, 1)
	check := func(h uint64, present bool) bool {
		ref, _, ok := m.Get(h)
		var err error
		switch {
		case ok && ref != refOf(h):
			err = fmt.Errorf("hash %#x read back reference %#x, want %#x", h, ref, refOf(h))
		case !ok && present:
			err = fmt.Errorf("present hash %#x missed", h)
		}
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
		return err == nil
	}

	parks := 0
	var parked sync.WaitGroup
	m.SetWriteHook(func() {
		if parks >= maxParks {
			return
		}
		parks++
		h := inflight.Load()
		done := make(chan struct{})
		parked.Add(1)
		go func() {
			defer parked.Done()
			defer close(done)
			check(h, false)
		}()
		select {
		case <-done:
		case <-time.After(time.Millisecond):
		}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(published.Load())
				for _, h := range hs[:n] {
					if !check(h, true) {
						return
					}
				}
				if h := inflight.Load(); h != 0 && !check(h, false) {
					return
				}
			}
		}()
	}
	for i, h := range hs {
		if 100*m.Len() >= 93*capacity {
			break
		}
		inflight.Store(h)
		if _, ok := m.Insert(h, refOf(h)); !ok {
			break
		}
		published.Store(int64(i + 1))
		inflight.Store(0)
	}
	close(stop)
	wg.Wait()
	parked.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	t.Logf("%d of %d slots filled, %d displacements, the writer parked %d times", m.Len(), capacity, m.Displacements(), parks)
	if 10*m.Len() <= 9*capacity || m.Displacements() == 0 || parks == 0 {
		t.Fatalf("the writer reached %d of %d slots with %d displacements and %d parks: the test no longer covers them", m.Len(), capacity, m.Displacements(), parks)
	}
}
