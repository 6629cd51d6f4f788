package hashtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

func TestSlotEncoding(t *testing.T) {
	if MakeRef(100, false) != 100 {
		t.Fatal("plain ref should equal LSN")
	}
	s := Slot{Hash: 7, Ref: MakeRef(12345, true)}
	if !s.Tombstone() || s.LSN() != 12345 {
		t.Fatalf("tombstone slot round trip failed: %+v", s)
	}
	s2 := Slot{Hash: 7, Ref: MakeRef(12345, false)}
	if s2.Tombstone() || s2.LSN() != 12345 {
		t.Fatalf("plain slot round trip failed: %+v", s2)
	}
	var b [SlotSize]byte
	encodeSlot(b[:], s)
	if got := decodeSlot(b[:]); got != s {
		t.Fatalf("encode/decode mismatch: %+v vs %+v", got, s)
	}
}

func TestMemBasic(t *testing.T) {
	m := NewMem(100)
	if m.Cap() != 128 {
		t.Fatalf("Cap = %d, want next pow2 128", m.Cap())
	}
	if _, ok := m.Insert(1, MakeRef(10, false)); !ok {
		t.Fatal("insert failed")
	}
	ref, probes, ok := m.Get(1)
	if !ok || (Slot{Ref: ref}).LSN() != 10 || probes < 1 {
		t.Fatalf("Get = %d, %d, %v", ref, probes, ok)
	}
	if _, _, ok := m.Get(2); ok {
		t.Fatal("found absent key")
	}
	// Update in place.
	m.Insert(1, MakeRef(20, false))
	if m.Len() != 1 {
		t.Fatalf("update should not grow table: Len = %d", m.Len())
	}
	ref, _, _ = m.Get(1)
	if (Slot{Ref: ref}).LSN() != 20 {
		t.Fatal("update not visible")
	}
}

func TestMemInsertIfAbsent(t *testing.T) {
	m := NewMem(8)
	if _, ok := m.InsertIfAbsent(5, MakeRef(1, false)); !ok {
		t.Fatal("first insert should succeed")
	}
	if _, ok := m.InsertIfAbsent(5, MakeRef(2, false)); !ok || m.Len() != 1 {
		t.Fatalf("second insert of same hash: ok=%v len=%d, want a no-op", ok, m.Len())
	}
	ref, _, _ := m.Get(5)
	if (Slot{Ref: ref}).LSN() != 1 {
		t.Fatal("InsertIfAbsent overwrote existing entry")
	}
	// Full: a present hash is still a no-op, an absent one is refused.
	for h := uint64(6); m.Len() < m.Cap(); h++ {
		m.InsertIfAbsent(h, MakeRef(int64(h), false))
	}
	if _, ok := m.InsertIfAbsent(5, MakeRef(3, false)); !ok {
		t.Fatal("present hash refused by a full table")
	}
	if _, ok := m.InsertIfAbsent(100, MakeRef(4, false)); ok {
		t.Fatal("absent hash accepted by a full table")
	}
}

func TestMemFull(t *testing.T) {
	m := NewMem(8)
	for i := uint64(0); i < 8; i++ {
		if _, ok := m.Insert(xhash.Uint64(i), MakeRef(int64(i)+1, false)); !ok {
			t.Fatalf("insert %d failed before table full", i)
		}
	}
	if m.LoadFactor() != 1.0 {
		t.Fatalf("LoadFactor = %v", m.LoadFactor())
	}
	if _, ok := m.Insert(xhash.Uint64(99), MakeRef(1, false)); ok {
		t.Fatal("insert into full table should fail")
	}
	// But updating an existing key must still work at 100% load.
	if _, ok := m.Insert(xhash.Uint64(3), MakeRef(77, false)); !ok {
		t.Fatal("update in full table should succeed")
	}
}

func TestMemWrapAround(t *testing.T) {
	// Force probes to wrap past the end of the slot array.
	m := NewMem(8)
	h := uint64(7) // lands in the last slot
	for i := 0; i < 4; i++ {
		if _, ok := m.Insert(h+uint64(i)*8, MakeRef(int64(i)+1, false)); !ok { // same bucket mod 8
			t.Fatalf("wrap insert %d failed", i)
		}
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := m.Get(h + uint64(i)*8); !ok {
			t.Fatalf("wrap get %d failed", i)
		}
	}
}

func TestMemIterateAndReset(t *testing.T) {
	m := NewMem(64)
	for i := uint64(0); i < 20; i++ {
		m.Insert(xhash.Uint64(i), MakeRef(int64(i)+1, false))
	}
	n := 0
	m.Iterate(func(s Slot) bool { n++; return true })
	if n != 20 {
		t.Fatalf("iterated %d, want 20", n)
	}
	n = 0
	m.Iterate(func(s Slot) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early-stop iterate visited %d", n)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	if _, _, ok := m.Get(xhash.Uint64(1)); ok {
		t.Fatal("entry survived reset")
	}
}

func TestMemClone(t *testing.T) {
	m := NewMem(16)
	m.Insert(1, MakeRef(5, false))
	c := m.Clone()
	m.Insert(2, MakeRef(6, false))
	if c.Len() != 1 {
		t.Fatal("clone shares state with original")
	}
	if _, _, ok := c.Get(1); !ok {
		t.Fatal("clone missing entry")
	}
}

// Property: Mem behaves like a map[uint64]uint64 under random insert/get
// sequences while below capacity.
func TestMemMatchesMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMem(256)
		oracle := map[uint64]uint64{}
		for i := 0; i < 200; i++ { // stays below cap 256
			h := xhash.Uint64(uint64(r.Intn(300)))
			ref := MakeRef(int64(r.Intn(1000))+1, r.Intn(10) == 0)
			if _, ok := m.Insert(h, ref); !ok {
				return false
			}
			oracle[h] = ref
		}
		for h, want := range oracle {
			got, _, ok := m.Get(h)
			if !ok || got != want {
				return false
			}
		}
		return m.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newArena(t *testing.T) *pmem.Arena {
	t.Helper()
	return pmem.NewArena(device.New(device.OptanePmem), 1<<22)
}

func TestPmemTableBuildAndGet(t *testing.T) {
	a := newArena(t)
	c := simclock.New(0)
	src := func(yield func(Slot) bool) {
		for i := uint64(0); i < 100; i++ {
			if !yield(Slot{Hash: xhash.Uint64(i), Ref: MakeRef(int64(i)+1, false)}) {
				return
			}
		}
	}
	tb, _, err := BuildPmemTable(c, a, 256, src)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i := uint64(0); i < 100; i++ {
		s, ok := tb.Get(c, xhash.Uint64(i))
		if !ok || s.LSN() != int64(i)+1 {
			t.Fatalf("get %d: %+v %v", i, s, ok)
		}
	}
	if _, ok := tb.Get(c, xhash.Uint64(10000)); ok {
		t.Fatal("found absent key")
	}
}

func TestPmemTableNewestFirstDedup(t *testing.T) {
	a := newArena(t)
	c := simclock.New(0)
	src := func(yield func(Slot) bool) {
		yield(Slot{Hash: 42, Ref: MakeRef(999, false)}) // newest
		yield(Slot{Hash: 42, Ref: MakeRef(1, false)})   // older duplicate
	}
	tb, _, err := BuildPmemTable(c, a, 8, src)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	s, _ := tb.Get(c, 42)
	if s.LSN() != 999 {
		t.Fatal("older duplicate overwrote newer entry")
	}
}

func TestPmemTableBuildOverflow(t *testing.T) {
	a := newArena(t)
	c := simclock.New(0)
	src := func(yield func(Slot) bool) {
		for i := uint64(0); i < 100; i++ {
			if !yield(Slot{Hash: xhash.Uint64(i), Ref: MakeRef(int64(i)+1, false)}) {
				return
			}
		}
	}
	if _, _, err := BuildPmemTable(c, a, 8, src); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestPmemTableSurvivesCrash(t *testing.T) {
	a := newArena(t)
	c := simclock.New(0)
	src := func(yield func(Slot) bool) {
		for i := uint64(0); i < 50; i++ {
			if !yield(Slot{Hash: xhash.Uint64(i), Ref: MakeRef(int64(i)+1, false)}) {
				return
			}
		}
	}
	tb, _, err := BuildPmemTable(c, a, 128, src)
	if err != nil {
		t.Fatal(err)
	}
	a.Crash()
	re, err := OpenPmemTable(a, tb.Offset(), tb.Cap(), tb.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if _, ok := re.Get(c, xhash.Uint64(i)); !ok {
			t.Fatalf("entry %d lost after crash", i)
		}
	}
}

func TestOpenPmemTableValidation(t *testing.T) {
	a := newArena(t) // 4 MiB
	for _, tc := range []struct {
		name            string
		off             int64
		capacity, count int
		ok              bool
	}{
		{"power of two", 256, 128, 5, true},
		{"whole lines", 256, 48, 5, true},
		{"whole lines, full", 256, 4112, 4112, true},
		{"neither", 256, 100, 5, false},
		{"one slot short of a line", 256, 47, 5, false},
		{"one slot past a line", 256, 49, 5, false},
		{"below the minimum", 256, 4, 1, false},
		{"zero", 256, 0, 0, false},
		{"negative", 256, -16, 0, false},
		{"count above capacity", 256, 48, 49, false},
		{"negative count", 256, 48, -1, false},
		{"nil offset", 0, 48, 5, false},
		// 4112 slots persist 65792 B but own a 128 KiB block: the prefix
		// fits below the arena's end here, the block does not.
		{"block past the arena", 4<<20 - 65792, 4112, 5, false},
		{"block ends at the arena's end", 4<<20 - 128<<10, 4112, 5, true},
		{"capacity that overflows the size", 256, 1 << 62, 5, false},
	} {
		_, err := OpenPmemTable(a, tc.off, tc.capacity, tc.count)
		if (err == nil) != tc.ok {
			t.Errorf("%s: OpenPmemTable(off %d, cap %d, count %d) err = %v, want ok = %v",
				tc.name, tc.off, tc.capacity, tc.count, err, tc.ok)
		}
	}
}

func TestPmemTableGetChargesLineReads(t *testing.T) {
	a := newArena(t)
	c := simclock.New(0)
	src := func(yield func(Slot) bool) {
		yield(Slot{Hash: 0, Ref: MakeRef(1, false)})
	}
	tb, _, err := BuildPmemTable(c, a, 64, src)
	if err != nil {
		t.Fatal(err)
	}
	reads0 := a.Device().Stats().ReadOps
	before := c.Now()
	tb.Get(c, 0)
	if a.Device().Stats().ReadOps != reads0+1 {
		t.Fatal("single-line probe should be one device read")
	}
	if c.Now()-before < device.OptanePmem.ReadLatency {
		t.Fatal("probe did not charge read latency")
	}
}

func TestPmemTableIterateAndRelease(t *testing.T) {
	a := newArena(t)
	c := simclock.New(0)
	src := func(yield func(Slot) bool) {
		for i := uint64(0); i < 30; i++ {
			if !yield(Slot{Hash: xhash.Uint64(i), Ref: MakeRef(int64(i)+1, false)}) {
				return
			}
		}
	}
	tb, _, err := BuildPmemTable(c, a, 64, src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	tb.Iterate(func(s Slot) bool { n++; return true })
	if n != 30 {
		t.Fatalf("iterated %d, want 30", n)
	}
	tb.ChargeScan(c)
	inUse := a.InUse()
	tb.Release()
	tb2, err := NewPmemTable(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Offset() != tb.Offset() || a.InUse() != inUse {
		t.Fatal("released table space not reused")
	}
}

// Property: a PmemTable built from any set of distinct hashes contains
// exactly that set.
func TestPmemTableBuildProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		set := map[uint64]bool{}
		for _, k := range keys {
			h := xhash.Uint64(k)
			set[h] = true
		}
		if len(set) > 400 {
			return true // skip oversized inputs
		}
		a := pmem.NewArena(device.New(device.OptanePmem), 1<<20)
		c := simclock.New(0)
		src := func(yield func(Slot) bool) {
			for h := range set {
				if !yield(Slot{Hash: h, Ref: MakeRef(1, false)}) {
					return
				}
			}
		}
		tb, _, err := BuildPmemTable(c, a, 1024, src)
		if err != nil {
			return false
		}
		if tb.Len() != len(set) {
			return false
		}
		for h := range set {
			if _, ok := tb.Get(c, h); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
