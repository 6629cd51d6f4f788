package pmem

import (
	"bytes"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

func newTestArena(t *testing.T) *Arena {
	t.Helper()
	return NewArena(device.New(device.OptanePmem), 1<<20)
}

func TestAllocAlignmentAndReuse(t *testing.T) {
	a := newTestArena(t)
	off1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off1 == 0 {
		t.Fatal("offset 0 must be reserved as nil")
	}
	if off1%256 != 0 {
		t.Fatalf("allocation not unit-aligned: %d", off1)
	}
	off2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off1+256 {
		t.Fatalf("second alloc = %d, want %d (100 B rounds to one unit)", off2, off1+256)
	}
	a.Free(off1, 100)
	off3, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off3 != off1 {
		t.Fatalf("freed block not reused: got %d, want %d", off3, off1)
	}
}

// TestAllocAfterRestoreIsZeroed: a reattached arena's allocator mark can sit
// below bytes a dead process persisted and nothing references; whoever gets
// that space next must not see them.
func TestAllocAfterRestoreIsZeroed(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	mark := a.InUse()
	off, _ := a.Alloc(512)
	a.StorePersist(c, off, bytes.Repeat([]byte{0xAB}, 512))
	a.Crash() // volatile = durable: what a reopen loads
	a.RestoreAllocator(mark)
	again, err := a.Alloc(512)
	if err != nil || again != off {
		t.Fatalf("Alloc after restore = %d, %v; want the same space at %d", again, err, off)
	}
	if !bytes.Equal(a.Bytes(again, 512), make([]byte, 512)) {
		t.Fatal("fresh allocation exposes a dead process's bytes")
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := NewArena(device.New(device.OptanePmem), 1024)
	if _, err := a.Alloc(2048); err == nil {
		t.Fatal("expected out-of-space error")
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("expected error for zero-size alloc")
	}
}

func TestFreeZeroesBlock(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(256)
	a.StorePersist(c, off, []byte("sensitive"))
	a.Free(off, 256)
	off2, _ := a.Alloc(256)
	if off2 != off {
		t.Fatalf("expected reuse of freed block")
	}
	if !bytes.Equal(a.Bytes(off2, 9), make([]byte, 9)) {
		t.Fatal("freed block was not zeroed")
	}
}

func TestPersistSurvivesCrash(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(512)
	a.Store(off, []byte("durable!"))
	a.Persist(c, off, 8)
	a.Store(off+256, []byte("volatile"))
	// No persist of the second write.
	a.Crash()
	if got := string(a.Bytes(off, 8)); got != "durable!" {
		t.Fatalf("persisted data lost on crash: %q", got)
	}
	if got := a.Bytes(off+256, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unpersisted data survived crash: %q", got)
	}
}

func TestCrashIsRepeatable(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(256)
	a.StorePersist(c, off, []byte("v1"))
	a.Crash()
	a.Store(off, []byte("v2"))
	a.Crash() // second crash discards v2 again
	if got := string(a.Bytes(off, 2)); got != "v1" {
		t.Fatalf("after second crash got %q, want v1", got)
	}
}

func TestStorePersistChargesDevice(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(256)
	charged := a.StorePersist(c, off, make([]byte, 16))
	s := a.Stats()
	if s.LogicalBytesWritten != 16 || s.MediaBytesWritten != 256 || charged != 256 {
		t.Fatalf("unexpected accounting: %+v, returned %d", s, charged)
	}
	if c.Now() == 0 {
		t.Fatal("persist did not charge time")
	}
	// What Persist returns is what the device counted, straddled lines and
	// empty ranges included: callers split MediaBytesWritten by it.
	off, _ = a.Alloc(1024)
	for _, r := range [][2]int64{{off + 250, 12}, {off, 1024}, {off + 256, 300}, {off, 0}} {
		before := a.Stats().MediaBytesWritten
		if got, want := a.Persist(c, r[0], r[1]), a.Stats().MediaBytesWritten-before; got != want {
			t.Fatalf("Persist(%d, %d) returned %d, device counted %d", r[0]-off, r[1], got, want)
		}
	}
}

func TestReadRandomReturnsData(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(256)
	a.StorePersist(c, off, []byte("hello"))
	before := c.Now()
	got := a.ReadRandom(c, off, 5)
	if string(got) != "hello" {
		t.Fatalf("ReadRandom = %q", got)
	}
	if c.Now() <= before {
		t.Fatal("read did not charge time")
	}
}

func TestReadSeqReturnsData(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(1024)
	a.StorePersist(c, off, bytes.Repeat([]byte{0xAB}, 1024))
	got := a.ReadSeq(c, off, 1024)
	if len(got) != 1024 || got[500] != 0xAB {
		t.Fatal("ReadSeq returned wrong data")
	}
}

func TestInUseHighWater(t *testing.T) {
	a := newTestArena(t)
	before := a.InUse()
	if _, err := a.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != before+256 {
		t.Fatalf("InUse = %d, want %d", a.InUse(), before+256)
	}
	if a.Capacity() != 1<<20 {
		t.Fatalf("Capacity = %d", a.Capacity())
	}
}
