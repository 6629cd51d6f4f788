package pmem_test

import (
	"bytes"
	"math/rand"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/device/filedev"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

// TestCrashReloadsWholeImage drives a random mix of allocations, stores,
// persists, frees, torn persists and tampering on both media, and checks after
// every Crash that the volatile image equals what the medium holds over the
// whole capacity: Crash reloads only below the allocator mark and the highest
// tampered byte, and that bound must lose nothing.
func TestCrashReloadsWholeImage(t *testing.T) {
	const capacity = 1 << 20
	arenas := map[string]func(t *testing.T, dev *device.Device) *pmem.Arena{
		"mem": func(t *testing.T, dev *device.Device) *pmem.Arena { return pmem.NewArena(dev, capacity) },
		"file": func(t *testing.T, dev *device.Device) *pmem.Arena {
			// 64 KiB segments: most of the capacity has no segment file.
			d, err := filedev.Open(filedev.Options{Dir: t.TempDir(), Capacity: capacity, SegmentBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return pmem.NewArenaOn(dev, capacity, d)
		},
	}
	for name, open := range arenas {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				dev := device.New(device.OptanePmem)
				reloadRound(t, seed, dev, open(t, dev))
			}
		})
	}
}

func reloadRound(t *testing.T, seed int64, dev *device.Device, a *pmem.Arena) {
	rng := rand.New(rand.NewSource(seed))
	c := simclock.New(0)
	capacity := a.Capacity()
	type block struct{ off, size int64 }
	var live []block
	image := make([]byte, capacity)
	crashes := 0
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(100); {
		case r < 25:
			size := int64(1 + rng.Intn(3000))
			off, err := a.Alloc(size)
			if err != nil {
				continue
			}
			live = append(live, block{off, size})
		case r < 50 && len(live) > 0:
			b := live[rng.Intn(len(live))]
			n := 1 + rng.Int63n(b.size)
			at := b.off + rng.Int63n(b.size-n+1)
			data := make([]byte, n)
			rng.Read(data)
			a.Store(at, data)
			switch rng.Intn(3) {
			case 0:
				a.Persist(c, at, n)
			case 1:
				a.PersistLater(c, at, n)
			}
		case r < 60 && len(live) > 0:
			i := rng.Intn(len(live))
			a.Free(live[i].off, live[i].size)
			live = append(live[:i], live[i+1:]...)
		case r < 66:
			// Anywhere, the space above the allocator mark included.
			data := make([]byte, 1+rng.Intn(512))
			rng.Read(data)
			a.TamperDurable(rng.Int63n(capacity-int64(len(data))), data)
		case r < 70 && dev.FaultPlan() == nil:
			// Cut the power a few persists from now, tearing that one.
			dev.InstallFaultPlan(&device.FaultPlan{CrashAtPersist: 1 + rng.Int63n(4), Tear: device.TearRandom, Seed: seed})
		case r < 78:
			a.Crash()
			dev.InstallFaultPlan(nil)
			crashes++
			if err := a.MediumErr(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := a.Medium().LoadInto(image); err != nil {
				t.Fatal(err)
			}
			if got := a.Bytes(0, capacity); !bytes.Equal(got, image) {
				i := 0
				for got[i] == image[i] {
					i++
				}
				t.Fatalf("seed %d, crash %d: volatile image differs from the medium at %d (mark %d)", seed, crashes, i, a.InUse())
			}
		}
	}
	if crashes == 0 {
		t.Fatalf("seed %d never crashed", seed)
	}
}
