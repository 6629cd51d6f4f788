package pmem

import (
	"bytes"
	"errors"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

func TestPersistTornKeepsExactPrefix(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(1024)
	data := bytes.Repeat([]byte{0xCD}, 1024)
	a.Store(off, data)

	a.Device().InstallFaultPlan(&device.FaultPlan{CrashAtPersist: 1, Tear: device.TearHalf})
	before := a.Stats()
	charged := a.Persist(c, off, 1024) // 4 lines; TearHalf commits the first 2
	if got := a.Stats(); got.MediaBytesWritten != before.MediaBytesWritten || charged != 0 {
		t.Fatal("crashing persist must not charge the device")
	}
	a.Device().InstallFaultPlan(nil)
	a.Crash()
	if !bytes.Equal(a.Bytes(off, 512), data[:512]) {
		t.Fatal("committed prefix lost")
	}
	if !bytes.Equal(a.Bytes(off+512, 512), make([]byte, 512)) {
		t.Fatal("uncommitted suffix survived the torn persist")
	}
}

func TestPersistsFrozenAfterTrigger(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(512)
	a.Device().InstallFaultPlan(&device.FaultPlan{CrashAtPersist: 1, Tear: device.TearNone})
	a.StorePersist(c, off, []byte("gone")) // triggers, nothing commits
	a.StorePersist(c, off+256, []byte("also gone"))
	a.Device().InstallFaultPlan(nil)
	a.Crash()
	if !bytes.Equal(a.Bytes(off, 512), make([]byte, 512)) {
		t.Fatal("post-trigger persist reached durable media")
	}
}

func TestFreeAfterPowerFailurePreservesDurable(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(256)
	a.StorePersist(c, off, []byte("keep me"))
	p := &device.FaultPlan{CrashAtPersist: 1}
	a.Device().InstallFaultPlan(p)
	a.Persist(c, off, 1) // trigger
	a.Free(off, 256)     // frozen process: durable zeroing must not happen
	a.Device().InstallFaultPlan(nil)
	a.Crash()
	if got := string(a.Bytes(off, 7)); got != "keep me" {
		t.Fatalf("durable data zeroed by post-trigger Free: %q", got)
	}
}

func TestCrashDiscardsFreeList(t *testing.T) {
	a := newTestArena(t)
	off, _ := a.Alloc(256)
	a.Free(off, 256)
	a.Crash()
	off2, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if off2 == off {
		t.Fatal("post-crash alloc reused a pre-crash freed block")
	}
	// Free/Alloc reuse still works after the crash.
	a.Free(off2, 256)
	off3, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if off3 != off2 {
		t.Fatalf("post-crash free list broken: got %d, want %d", off3, off2)
	}
}

func TestAllocErrorInjection(t *testing.T) {
	a := newTestArena(t)
	a.Device().InstallFaultPlan(&device.FaultPlan{ErrorProb: 1.0, Seed: 3})
	if _, err := a.Alloc(256); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Alloc = %v, want ErrInjected", err)
	}
	a.Device().InstallFaultPlan(nil)
	if _, err := a.Alloc(256); err != nil {
		t.Fatalf("Alloc after uninstall = %v", err)
	}
}

func TestTamperDurableVisibleAfterCrash(t *testing.T) {
	a := newTestArena(t)
	c := simclock.New(0)
	off, _ := a.Alloc(256)
	a.StorePersist(c, off, []byte("original"))
	a.TamperDurable(off, []byte("corrupt!"))
	if got := string(a.Bytes(off, 8)); got != "original" {
		t.Fatalf("tamper leaked into volatile image: %q", got)
	}
	// Above the allocator mark, where no allocation has reached yet.
	above := a.InUse() + 4096
	a.TamperDurable(above, []byte("beyond the mark"))
	a.Crash()
	if got := string(a.Bytes(off, 8)); got != "corrupt!" {
		t.Fatalf("tamper not visible after crash: %q", got)
	}
	if got := string(a.Bytes(above, 15)); got != "beyond the mark" {
		t.Fatalf("tamper above the allocator mark not visible after crash: %q", got)
	}
	// Out-of-range tampering is ignored, not a panic.
	a.TamperDurable(a.Capacity()-4, []byte("overflow"))
	a.TamperDurable(-1, []byte("x"))
}
