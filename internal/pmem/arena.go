// Package pmem implements the simulated Optane persistent memory arena used
// by every store in this repository.
//
// The arena holds one image of the memory in heap: the volatile image, which
// models the CPU cache hierarchy plus the device and is what running code
// reads and writes. The durable bytes, the persistent media behind the write
// pending queue, live only behind the arena's Medium: a byte slice on the
// simulated backend (MemMedium), segment files on the file backend. Writes
// land in the volatile image immediately; Persist (clwb+sfence) writes byte
// ranges back to the medium and charges the device model for the media
// traffic. Crash reloads the volatile image from the medium, so anything not
// persisted is lost — exactly the failure semantics App Direct mode exposes —
// and Recover-time code sees only what was fenced.
package pmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

// ErrOutOfSpace is returned by Alloc when the arena is exhausted.
var ErrOutOfSpace = errors.New("pmem: arena out of space")

// Arena is a byte-addressable persistent memory region backed by the device
// timing model. Allocation is thread-safe; data access into disjoint
// allocations is safe without locking, as with real memory.
type Arena struct {
	dev *device.Device

	// med holds the durable bytes (see Medium): a MemMedium unless the arena
	// was built on another backend.
	med Medium
	// medErr latches the first Medium I/O error: once a persist has failed to
	// reach stable storage the arena can no longer honour durability, so the
	// store fails stop (core checks MediumErr on the session paths).
	medErr atomic.Pointer[error]

	mu       sync.Mutex
	volatile []byte
	next     int64
	free     map[int64][]int64 // size class -> free offsets
	// ahead is the end of the medium bytes above the allocator mark that the
	// volatile image may not hold: a TamperDurable write's, or a medium whose
	// content predates the arena. Above max(next, ahead) the two images are
	// equal, because every volatile write lands in an allocation below the
	// mark and Alloc zeroes fresh space, so Reload stops there.
	ahead int64

	crashMu sync.RWMutex // held for writing only during Reload
}

// NewArena creates an arena of the given capacity in bytes on device dev, over
// a fresh MemMedium. Offset 0 is reserved (a zero offset means "nil"
// throughout the codebase), so the first allocation starts at the device
// access unit boundary.
func NewArena(dev *device.Device, capacity int64) *Arena {
	a := NewArenaOn(dev, capacity, NewMemMedium(capacity))
	a.ahead = 0 // a fresh MemMedium is all zeroes, like the volatile image
	return a
}

// NewArenaOn creates an arena whose durable bytes live on med (a file-backed
// persistence backend), so every Persist and Barrier reaches real stable
// storage. The device timing model behaves exactly as on the simulated
// backend. What med already holds is unknown until the first Reload, which
// reads all of it.
func NewArenaOn(dev *device.Device, capacity int64, med Medium) *Arena {
	return &Arena{
		dev:      dev,
		med:      med,
		volatile: make([]byte, capacity),
		next:     dev.Profile().AccessUnit,
		free:     make(map[int64][]int64),
		ahead:    capacity,
	}
}

// Device returns the backing device model.
func (a *Arena) Device() *device.Device { return a.dev }

// Medium returns the persistence backend holding the durable bytes.
func (a *Arena) Medium() Medium { return a.med }

// MediumErr reports the first I/O error the persistence backend returned, or
// nil. A non-nil value means some acknowledged persist may not be durable;
// the store must stop acknowledging writes.
func (a *Arena) MediumErr() error {
	if e := a.medErr.Load(); e != nil {
		return *e
	}
	return nil
}

// failMedium latches a backend I/O error (first one wins).
func (a *Arena) failMedium(err error) {
	if err == nil {
		return
	}
	// Latch a copy: taking the parameter's address would move it to the heap
	// on every call, the nil ones on the persist path included.
	latched := err
	a.medErr.CompareAndSwap(nil, &latched)
}

// RestoreAllocator positions the bump allocator at next, used when the arena
// is reattached to existing durable state after a process restart. The free
// list starts empty — like the post-Crash rebuild, reattachment carves fresh
// space rather than trusting host allocator state that died with the process.
func (a *Arena) RestoreAllocator(next int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	unit := a.dev.Profile().AccessUnit
	if next < unit {
		next = unit
	}
	a.next = next
	a.free = make(map[int64][]int64)
}

// ReserveFloor raises the bump allocator to at least floor, so future
// allocations can never land on durable state below it. Recovery calls it for
// every region a durable manifest references: the persisted allocator mark is
// only synced at log-segment granularity and can trail table allocations made
// since. A floor at or below the current mark is a no-op.
func (a *Arena) ReserveFloor(floor int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if floor > a.next {
		a.next = floor
	}
}

// Capacity returns the arena size in bytes.
func (a *Arena) Capacity() int64 { return int64(len(a.volatile)) }

// InUse returns the high-water allocation mark in bytes.
func (a *Arena) InUse() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// Alloc reserves size bytes aligned to the device access unit and returns the
// offset. Freed blocks of the same size class are reused. Allocation itself
// is not charged time: real pmem allocators amortize this into the writes.
func (a *Arena) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("pmem: invalid alloc size %d", size)
	}
	unit := a.dev.Profile().AccessUnit
	size = (size + unit - 1) / unit * unit
	if p := a.dev.FaultPlan(); p != nil {
		if err := p.AllocError(); err != nil {
			return 0, err
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if list := a.free[size]; len(list) > 0 {
		off := list[len(list)-1]
		a.free[size] = list[:len(list)-1]
		return off, nil
	}
	if a.next+size > int64(len(a.volatile)) {
		return 0, fmt.Errorf("%w: need %d bytes, %d available", ErrOutOfSpace, size, int64(len(a.volatile))-a.next)
	}
	off := a.next
	a.next += size
	// Fresh space is handed out zeroed, like recycled blocks (Free zeroes
	// them). It already is unless the arena was reattached: the restored
	// allocator mark can trail a table that was persisted just before the
	// process died and that no manifest references, and a table built over
	// those bytes would take them for its own entries.
	clear(a.volatile[off : off+size])
	return off, nil
}

// Free returns an allocation of the given size to the arena's free list. The
// contents are zeroed in the volatile image and on the medium so stale data
// cannot leak into the next user of the block (the durable zeroing is not
// charged: real systems defer it into the next table write, which we charge
// in full).
func (a *Arena) Free(off, size int64) {
	if off == 0 || size <= 0 {
		return
	}
	unit := a.dev.Profile().AccessUnit
	size = (size + unit - 1) / unit * unit
	clear(a.volatile[off : off+size])
	// After a simulated power failure the process is as good as dead: its
	// deferred durable zeroing never happens, and the medium must stay
	// exactly as the crash left it for recovery to observe. The zeroes need
	// not be synced here: the medium guarantees they are durable by the next
	// synced WriteMeta, which is always ordered before a durable mapping can
	// make the region reachable again (see Medium.ZeroDurable).
	if !a.dev.PowerFailed() && a.mediumOK() {
		a.failMedium(a.med.ZeroDurable(off, size))
	}
	a.mu.Lock()
	a.free[size] = append(a.free[size], off)
	a.mu.Unlock()
}

// Bytes returns the volatile view of [off, off+size). Callers that model
// timed access must charge the device separately (ReadRandom/ReadSeq); this
// accessor exists so index structures can manipulate their backing memory.
func (a *Arena) Bytes(off, size int64) []byte {
	return a.volatile[off : off+size]
}

// ReadRandom charges one random device read and returns the volatile view of
// the range (identical to the medium's bytes for persisted data).
func (a *Arena) ReadRandom(c *simclock.Clock, off, size int64) []byte {
	a.dev.ReadRandom(c, off, size)
	return a.volatile[off : off+size]
}

// ReadSeq charges a streaming read and returns the volatile view.
func (a *Arena) ReadSeq(c *simclock.Clock, off, size int64) []byte {
	a.dev.ReadSeq(c, off, size)
	return a.volatile[off : off+size]
}

// Persist flushes [off, off+size) from the volatile image to the medium
// (clwb + sfence). Partial-unit writes incur read-modify-write
// charges in the device model. It returns the media bytes the device charged
// (whole access units; zero for a persist a power failure cut short), which
// callers add to their per-purpose byte counters. On a medium it is a
// barrier, the range's write-back and a second barrier: every earlier
// PersistLater reaches stable storage before the range can, and the range
// has when Persist returns — the order a commit record needs over what it
// points to.
func (a *Arena) Persist(c *simclock.Clock, off, size int64) int64 {
	a.Barrier()
	n := a.PersistLater(c, off, size)
	a.Barrier()
	return n
}

// Barrier makes every earlier PersistLater durable on the medium. It is a
// no-op after a simulated power failure (the dead process syncs nothing) and
// after a medium error.
func (a *Arena) Barrier() {
	if !a.mediumOK() || a.dev.PowerFailed() {
		return
	}
	a.failMedium(a.med.Sync())
}

// mediumOK reports whether writes still reach the medium: it has not failed.
// After the first medium error the store fails stop and the backing store
// keeps the state the error left: a later write could land without what it
// depends on (fdatasync need not report a lost page twice), so none is
// issued.
func (a *Arena) mediumOK() bool { return a.medErr.Load() == nil }

// PersistLater is Persist without the barriers: the same device charge, media
// bytes and fault-plan event, but the range is only written back — durable by
// the next Barrier or Persist, not before. On a MemMedium the two are the
// same call.
func (a *Arena) PersistLater(c *simclock.Clock, off, size int64) int64 {
	if size <= 0 {
		return 0
	}
	if p := a.dev.FaultPlan(); p != nil {
		keep, normal := p.NotePersist(a.dev.Profile().AccessUnit, off, size)
		if !normal {
			// The power failed on (or before) this persist: only the first
			// keep bytes — a whole-line prefix of the touched range — reach
			// media, and the device is not charged (the timeline ends here).
			// The dead process never syncs the torn prefix.
			a.writeBack(off, keep)
			return 0
		}
	}
	a.writeBack(off, size)
	return a.dev.WritePersist(c, off, size)
}

// writeBack writes [off, off+size) of the volatile image back to the medium,
// unless a medium error has latched. It holds crashMu shared, so it never
// runs inside a Reload.
func (a *Arena) writeBack(off, size int64) {
	if size <= 0 || !a.mediumOK() {
		return
	}
	a.crashMu.RLock()
	a.failMedium(a.med.WriteBack(off, a.volatile[off:off+size]))
	a.crashMu.RUnlock()
}

// PersistMeta durably replaces the engine's host-metadata record on the
// persistence backend (a no-op on a MemMedium: the simulated store keeps its
// host state in the process and never calls it). The write counts as a
// persist event against any installed fault plan — on the file backend it is
// an fsync like any other persist point — and a plan that fires on it tears
// the freshly framed record, which the medium's record checksum must detect
// on reopen. No virtual time
// is charged: metadata persists exist only on the real backend, which the
// deterministic virtual-time experiments never use.
func (a *Arena) PersistMeta(payload []byte) {
	tear := int64(-1)
	if p := a.dev.FaultPlan(); p != nil {
		keep, normal := p.NotePersist(a.dev.Profile().AccessUnit, 0, int64(len(payload)))
		if !normal {
			if keep == 0 {
				// Nothing of the record reached the store; the previous
				// record remains the newest valid one.
				return
			}
			tear = keep
		}
	}
	if a.mediumOK() {
		a.failMedium(a.med.WriteMeta(payload, tear))
	}
}

// Store writes data into the volatile image without persisting it. It models
// a plain cached store: free in time (the cost is charged when the line is
// eventually persisted), lost on crash if never fenced.
func (a *Arena) Store(off int64, data []byte) {
	copy(a.volatile[off:off+int64(len(data))], data)
}

// StorePersist writes data and immediately persists it — the common
// store+clwb+sfence (or ntstore+sfence) sequence for small in-place updates,
// the access pattern that makes Pmem-Hash slow in the paper. Like Persist it
// returns the media bytes charged.
func (a *Arena) StorePersist(c *simclock.Clock, off int64, data []byte) int64 {
	a.Store(off, data)
	return a.Persist(c, off, int64(len(data)))
}

// Reload replaces the volatile image with what the medium holds, discarding
// every write that was not persisted, and empties the free list: the state a
// freshly started process observes. A reattach calls it once before any
// session touches the arena, and Crash is a Reload in place. It reads only
// below max(InUse(), the end of the highest TamperDurable write): above that
// the two images already agree (see ahead). The caller must guarantee no
// concurrent access (stores stop their workers first).
func (a *Arena) Reload() error {
	a.crashMu.Lock()
	defer a.crashMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	end := max(a.next, a.ahead)
	a.ahead = 0
	// The free list is host allocator state: after a mid-operation crash it
	// can hold blocks the durable metadata still references (a table released
	// after a manifest persist that never committed), and reusing those would
	// overwrite live recovered data. The post-recovery allocator instead
	// carves fresh space, modeling an allocator that rebuilds its metadata
	// conservatively.
	a.free = make(map[int64][]int64)
	return a.med.LoadInto(a.volatile[:end])
}

// Crash simulates a power failure: a Reload, with a failure to read the
// medium latched as a medium error. On the file backend the medium is the
// segment files as the page cache holds them, which is what a killed process
// leaves behind: every write-back survives, synced or not. After a medium
// error has latched, no write reaches the files any more, so the image shows
// what reached them before it.
func (a *Arena) Crash() { a.failMedium(a.Reload()) }

// TamperDurable overwrites bytes on the medium directly, bypassing the
// volatile image and the device model; the next Crash makes them visible. It
// exists for fault-injection tests (fuzzing recovery with corrupted durable
// state) and must not be used by store code.
func (a *Arena) TamperDurable(off int64, data []byte) {
	end := off + int64(len(data))
	if off < 0 || end > a.Capacity() {
		return
	}
	a.mu.Lock()
	a.ahead = max(a.ahead, end)
	a.mu.Unlock()
	a.failMedium(a.med.WriteBack(off, data))
}

// Stats returns the backing device's media counters.
func (a *Arena) Stats() device.Stats { return a.dev.Stats() }
