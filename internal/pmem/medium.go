package pmem

// Medium is the persistence backend that holds the arena's durable image:
// where bytes go when they are persisted, and where they come back from after
// a crash or a process restart. The arena keeps only the volatile image in
// heap; every write-back, zeroing and reload goes through its Medium, so the
// virtual-time device model, Crash and recovery code are the same on every
// backend. MemMedium is the simulated one; internal/device/filedev is the
// file-backed one.
//
// Two operations meet at its boundary: a write-back reaches the backing store
// but need not survive a power cut until the next barrier, and a barrier
// makes every earlier write-back durable — the clwb-freely,
// sfence-where-ordering-needs-it discipline of real persistent memory. Only
// the places that promise durability (an acknowledgement, an index
// checkpoint, a host record) issue a barrier, and replication ships only what
// a barrier has covered.
//
// Implementations must be safe for concurrent use; the arena may call
// WriteBack and Sync from multiple sessions and ZeroDurable from background
// reclamation at the same time (always for disjoint ranges).
type Medium interface {
	// WriteBack writes data, the volatile image's bytes at
	// [off, off+len(data)), onto the backing store: durable by the next
	// barrier, not before.
	WriteBack(off int64, data []byte) error

	// ZeroDurable zeroes [off, off+size) on the backing store. The arena
	// calls it when a block is freed. Like a write-back the zeroes are durable
	// by the next barrier, and WriteMeta is one: host metadata is what can
	// make a freed-then-reused region reachable again (the wlog segment
	// directory persists from reserveChunk before any entry is written), and
	// a power cut must never preserve such a record while rolling back the
	// zeroes — the region's stale bytes would replay as live entries.
	ZeroDurable(off, size int64) error

	// LoadInto fills dst, a prefix of the address space, with what the
	// backing store holds there: every write-back and zeroing issued so far,
	// synced or not. A medium that outlives the process should leave alone
	// the pages of dst that already hold those bytes: a reattach loads into a
	// fresh, all-zero image, most of which the store may hold nothing for.
	LoadInto(dst []byte) error

	// Sync is the barrier: every write-back and zeroing issued before the
	// call is durable when it returns.
	Sync() error

	// WriteMeta replaces the engine's host-metadata record (the wlog segment
	// directory and allocator marks; see core's hostState). tear < 0 issues a
	// barrier, then writes the full record and syncs it; otherwise only the
	// first tear payload bytes of the freshly framed record reach the store
	// and nothing is synced — the torn-write image of a metadata persist
	// interrupted by power failure, which the record checksum must detect on
	// reopen.
	WriteMeta(payload []byte, tear int64) error

	// Close flushes all host-cached state (write-backs, manifest record,
	// directory entries) to stable storage and releases the backing
	// resources.
	Close() error
}

// MemMedium is the simulated backend: the durable image is a byte slice in
// heap, a write-back is a copy into it and a barrier is free. It keeps no host
// record, so WriteMeta and Close do nothing.
type MemMedium struct{ image []byte }

// NewMemMedium returns a zeroed in-memory medium of capacity bytes.
func NewMemMedium(capacity int64) *MemMedium { return &MemMedium{image: make([]byte, capacity)} }

// WriteBack implements Medium.
func (m *MemMedium) WriteBack(off int64, data []byte) error {
	copy(m.image[off:], data)
	return nil
}

// ZeroDurable implements Medium.
func (m *MemMedium) ZeroDurable(off, size int64) error {
	clear(m.image[off : off+size])
	return nil
}

// LoadInto implements Medium.
func (m *MemMedium) LoadInto(dst []byte) error {
	copy(dst, m.image)
	return nil
}

// Sync implements Medium: every write-back is already in the image.
func (m *MemMedium) Sync() error { return nil }

// WriteMeta implements Medium.
func (m *MemMedium) WriteMeta(payload []byte, tear int64) error { return nil }

// Close implements Medium.
func (m *MemMedium) Close() error { return nil }
