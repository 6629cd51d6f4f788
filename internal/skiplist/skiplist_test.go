package skiplist

import (
	"math/rand"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

func newList(t *testing.T) (*List, *pmem.Arena) {
	t.Helper()
	a := pmem.NewArena(device.New(device.OptanePmem), 1<<24)
	l, err := New(a, pmem.NewSlab(a, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	return l, a
}

func TestInsertGet(t *testing.T) {
	l, _ := newList(t)
	c := simclock.New(0)
	for i := uint64(1); i <= 500; i++ {
		if err := l.Insert(c, i*7, i); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 500 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := uint64(1); i <= 500; i++ {
		ref, ok := l.Get(c, i*7)
		if !ok || ref != i {
			t.Fatalf("get %d = %d, %v", i*7, ref, ok)
		}
	}
	if _, ok := l.Get(c, 3); ok {
		t.Fatal("found absent key")
	}
}

func TestUpdateInPlace(t *testing.T) {
	l, _ := newList(t)
	c := simclock.New(0)
	l.Insert(c, 10, 1)
	l.Insert(c, 10, 2)
	if l.Len() != 1 {
		t.Fatalf("update grew list: %d", l.Len())
	}
	ref, _ := l.Get(c, 10)
	if ref != 2 {
		t.Fatal("update not visible")
	}
}

func TestIterateSorted(t *testing.T) {
	l, _ := newList(t)
	c := simclock.New(0)
	r := rand.New(rand.NewSource(2))
	inserted := map[uint64]bool{}
	for i := 0; i < 300; i++ {
		h := uint64(r.Intn(10000)) + 1
		l.Insert(c, h, 1)
		inserted[h] = true
	}
	var prev uint64
	n := 0
	l.Iterate(func(h, ref uint64) bool {
		if h <= prev {
			t.Fatalf("iteration not sorted: %d after %d", h, prev)
		}
		prev = h
		n++
		return true
	})
	if n != len(inserted) {
		t.Fatalf("iterated %d, want %d", n, len(inserted))
	}
}

func TestInsertWritesAreSmallAndAmplified(t *testing.T) {
	l, a := newList(t)
	c := simclock.New(0)
	a.Device().ResetStats()
	for i := uint64(1); i <= 1000; i++ {
		l.Insert(c, i*13, i)
	}
	wa := a.Device().Stats().WriteAmplification()
	if wa < 2 {
		t.Fatalf("skiplist insert WA = %v, expected substantial amplification", wa)
	}
}

func TestSurvivesCrash(t *testing.T) {
	l, a := newList(t)
	c := simclock.New(0)
	for i := uint64(1); i <= 100; i++ {
		l.Insert(c, i, i)
	}
	a.Crash()
	// Every insert was persisted, so the whole list must survive.
	for i := uint64(1); i <= 100; i++ {
		ref, ok := l.Get(c, i)
		if !ok || ref != i {
			t.Fatalf("entry %d lost on crash", i)
		}
	}
}

func TestReset(t *testing.T) {
	l, _ := newList(t)
	c := simclock.New(0)
	for i := uint64(1); i <= 50; i++ {
		l.Insert(c, i, i)
	}
	l.Reset(c)
	if l.Len() != 0 || l.PmemBytes() != 0 {
		t.Fatal("reset did not clear")
	}
	if _, ok := l.Get(c, 1); ok {
		t.Fatal("entry survived reset")
	}
	// List must be reusable after reset.
	l.Insert(c, 5, 99)
	if ref, ok := l.Get(c, 5); !ok || ref != 99 {
		t.Fatal("list unusable after reset")
	}
}
