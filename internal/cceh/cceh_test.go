package cceh

import (
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

func newTable(t *testing.T, depth uint8, arenaBytes int64) (*Table, *pmem.Arena) {
	t.Helper()
	a := pmem.NewArena(device.New(device.OptanePmem), arenaBytes)
	tb, err := New(a, depth)
	if err != nil {
		t.Fatal(err)
	}
	return tb, a
}

func TestInsertGet(t *testing.T) {
	tb, _ := newTable(t, 1, 1<<22)
	c := simclock.New(0)
	for i := uint64(0); i < 500; i++ {
		if err := tb.Insert(c, xhash.Uint64(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		ref, ok := tb.Get(c, xhash.Uint64(i))
		if !ok || ref != i+1 {
			t.Fatalf("get %d = %d, %v", i, ref, ok)
		}
	}
	if _, ok := tb.Get(c, xhash.Uint64(99999)); ok {
		t.Fatal("found absent key")
	}
}

func TestUpdateInPlace(t *testing.T) {
	tb, a := newTable(t, 1, 1<<22)
	c := simclock.New(0)
	h := xhash.Uint64(7)
	tb.Insert(c, h, 1)
	splitsBefore := tb.Splits()
	wBefore := a.Device().Stats().MediaBytesWritten
	tb.Insert(c, h, 2)
	if tb.Splits() != splitsBefore {
		t.Fatal("update caused a split")
	}
	// One in-place 16 B slot update = one 256 B media write.
	if d := a.Device().Stats().MediaBytesWritten - wBefore; d != 256 {
		t.Fatalf("update media write = %d, want 256", d)
	}
	ref, _ := tb.Get(c, h)
	if ref != 2 {
		t.Fatal("update not visible")
	}
}

func TestSplitsGrowDirectory(t *testing.T) {
	tb, _ := newTable(t, 0, 1<<26)
	c := simclock.New(0)
	const n = 20000 // far beyond one segment: forces splits + dir doubling
	for i := uint64(0); i < n; i++ {
		if err := tb.Insert(c, xhash.Uint64(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Splits() == 0 || tb.DirSize() <= 1 {
		t.Fatalf("expected splits and directory growth: splits=%d dir=%d", tb.Splits(), tb.DirSize())
	}
	for i := uint64(0); i < n; i++ {
		ref, ok := tb.Get(c, xhash.Uint64(i))
		if !ok || ref != i+1 {
			t.Fatalf("entry %d lost after splits", i)
		}
	}
}

func TestDelete(t *testing.T) {
	tb, _ := newTable(t, 1, 1<<22)
	c := simclock.New(0)
	h := xhash.Uint64(42)
	tb.Insert(c, h, 5)
	if !tb.Delete(c, h) {
		t.Fatal("delete failed")
	}
	if _, ok := tb.Get(c, h); ok {
		t.Fatal("deleted key still readable")
	}
	if tb.Delete(c, xhash.Uint64(43)) {
		t.Fatal("delete of absent key succeeded")
	}
	// Reinsert reuses the tombstoned slot.
	tb.Insert(c, h, 9)
	if ref, ok := tb.Get(c, h); !ok || ref != 9 {
		t.Fatal("reinsert after delete failed")
	}
}

func TestInsertWriteAmplification(t *testing.T) {
	// CCEH's defining property under the 256 B unit: small in-place inserts
	// amplify ~16x until splits add bulk writes.
	tb, a := newTable(t, 4, 1<<24)
	c := simclock.New(0)
	a.Device().ResetStats()
	for i := uint64(0); i < 1000; i++ {
		tb.Insert(c, xhash.Uint64(i), i+1)
	}
	wa := a.Device().Stats().WriteAmplification()
	if wa < 8 {
		t.Fatalf("CCEH insert WA = %v, expected large (~16)", wa)
	}
}

func TestIterate(t *testing.T) {
	tb, _ := newTable(t, 1, 1<<22)
	c := simclock.New(0)
	for i := uint64(0); i < 100; i++ {
		tb.Insert(c, xhash.Uint64(i), i+1)
	}
	tb.Delete(c, xhash.Uint64(0))
	n := 0
	tb.Iterate(func(h, ref uint64) bool { n++; return true })
	if n != 99 {
		t.Fatalf("iterated %d live entries, want 99", n)
	}
}

func TestFootprint(t *testing.T) {
	tb, _ := newTable(t, 2, 1<<22)
	if tb.DRAMFootprint() <= 0 {
		t.Fatal("footprint should be positive")
	}
}

// TestCrashInSplit cuts the power at each persist of a table's first split
// (the directory copy and both new segments), whole and torn, and checks
// that every insert acknowledged before the cut reads back after Crash, and
// that the table then takes the rest. The directory is host state that
// survives Crash, so a split must not repoint it at segments whose persists
// the power failure dropped.
func TestCrashInSplit(t *testing.T) {
	key := func(i int) uint64 { return xhash.Uint64(uint64(i)) }
	// fill inserts keys until the first split has run, or until plan cuts
	// the power, and returns how many inserts were acknowledged before.
	fill := func(plan *device.FaultPlan) (*Table, *pmem.Arena, int) {
		tb, a := newTable(t, 0, 1<<22)
		a.Device().InstallFaultPlan(plan)
		c := simclock.New(0)
		for i := 0; tb.Splits() == 0; i++ {
			err := tb.Insert(c, key(i), uint64(i)+1)
			if plan.Triggered() {
				return tb, a, i
			}
			if err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		return tb, a, -1
	}

	// A clean run numbers the persists: the insert that splits makes four,
	// the directory copy, segment A, segment B and its own slot.
	count := &device.FaultPlan{}
	tb, _, _ := fill(count)
	total := count.Persists()
	if tb.DirSize() != 2 {
		t.Fatalf("first split left %d directory entries, want 2", tb.DirSize())
	}
	splitFirst := total - 3
	for point := splitFirst; point < total; point++ {
		for _, tear := range []device.TearMode{device.TearNone, device.TearFirstLine, device.TearHalf} {
			plan := &device.FaultPlan{CrashAtPersist: point, Tear: tear}
			tb, a, acked := fill(plan)
			if acked != int(splitFirst)-1 {
				t.Fatalf("point %d cut insert %d, not the one that splits", point, acked)
			}
			a.Device().InstallFaultPlan(nil)
			a.Crash()
			c := simclock.New(0)
			for i := 0; i < acked; i++ {
				if ref, ok := tb.Get(c, key(i)); !ok || ref != uint64(i)+1 {
					t.Fatalf("point %d/%d tear %d: acknowledged insert %d lost (%d, %v)", point, total, tear, i, ref, ok)
				}
			}
			const n = 3000
			for i := acked; i < n; i++ {
				if err := tb.Insert(c, key(i), uint64(i)+1); err != nil {
					t.Fatalf("point %d tear %d: insert %d after recovery: %v", point, tear, i, err)
				}
			}
			for i := 0; i < n; i++ {
				if ref, ok := tb.Get(c, key(i)); !ok || ref != uint64(i)+1 {
					t.Fatalf("point %d tear %d: entry %d lost after recovery", point, tear, i)
				}
			}
		}
	}
}
