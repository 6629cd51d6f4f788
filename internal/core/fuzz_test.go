package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"chameleondb/internal/simclock"
)

// fuzzStore opens a small store with a little flushed data, so manifests and
// tables exist for the fuzzed input to collide with — at a geometry its 64
// keys outgrow, so the last levels are fitted tables. The log holds one bulk
// chunk and then two sessions' flush-sized reservations, shrinking to single
// lines: the shape acknowledged wire traffic leaves.
func fuzzStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(grownConfig())
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 64; i++ {
		if err := se.Put([]byte(fmt.Sprintf("fz-%04d", i)), []byte(fmt.Sprintf("value-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < 8; i++ {
		w := se
		if i%2 == 1 {
			w = se2
		}
		if err := w.Put([]byte(fmt.Sprintf("fz-%04d", i)), []byte(fmt.Sprintf("acked-%04d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// FuzzManifestDecode feeds arbitrary bytes to the shard manifest decoder. Any
// input must produce a clean error or a consistent directory — never a panic,
// and never a table that points outside the arena.
func FuzzManifestDecode(f *testing.F) {
	seedStore := fuzzStore(f)
	for _, sh := range seedStore.shards {
		sh.mu.Lock()
		f.Add(sh.appendManifest(nil, sh.recoverLSN))
		sh.mu.Unlock()
	}
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	huge := binary.LittleEndian.AppendUint64(nil, 1<<40)
	f.Add(append(huge, huge...))
	// The last-level entry of a directory whose table is fitted (48 slots in
	// a 64-slot block), with its capacity a line off either way, a slot off,
	// at the block's power of two, overflowing, and with a count that no
	// longer fits. The capacity is the fourth word, the count the fifth.
	sh := seedStore.shards[0]
	if sh.last == nil || sh.last.t.Cap() != 48 {
		f.Fatalf("seed store's shard 0 has no 48-slot fitted last level")
	}
	for _, tweak := range []struct{ word, val uint64 }{
		{3, 48 - 16}, {3, 48 + 16}, {3, 48 + 1}, {3, 64}, {3, 3 << 61}, {4, 49},
	} {
		m := sh.appendManifest(nil, sh.recoverLSN)
		binary.LittleEndian.PutUint64(m[8*tweak.word:], tweak.val)
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(sweepConfig())
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shards[0]
		sh.mu.Lock()
		decodeErr := sh.decodeManifest(data)
		sh.mu.Unlock()
		if decodeErr != nil {
			return
		}
		// The decoder accepted the directory: every table it opened must lie
		// inside the arena, so reads through it cannot fault.
		check := func(p *ptable) {
			if p == nil {
				return
			}
			if p.t.Offset() <= 0 || p.t.Offset()+p.t.BlockBytes() > s.arena.Capacity() {
				t.Fatalf("decoded table's block [%d, +%d) outside arena", p.t.Offset(), p.t.BlockBytes())
			}
			if p.t.Len() > p.t.Cap() || p.t.SizeBytes() > p.t.BlockBytes() {
				t.Fatalf("decoded table: %d entries in %d slots, %d B in a %d B block", p.t.Len(), p.t.Cap(), p.t.SizeBytes(), p.t.BlockBytes())
			}
		}
		check(sh.last)
		for _, d := range sh.dumped {
			check(d)
		}
		for _, lvl := range sh.levels {
			for _, p := range lvl {
				check(p)
			}
		}
	})
}

// FuzzRecover tampers with the durable image at fuzz-chosen offsets, crashes,
// and recovers. Recovery must either fail with an error or come back to a
// store that serves reads — a corrupted medium must never panic the engine.
func FuzzRecover(f *testing.F) {
	f.Add(int64(0), []byte{0xff})
	f.Add(int64(4096), []byte{0x00, 0x00, 0x00, 0x00})
	f.Add(int64(128<<10), []byte("garbage-garbage-garbage"))
	// Aimed at the log, whose first segment holds the bulk chunk and, behind
	// it, reservations of whole lines with zero gaps between their entries:
	// smash an entry header in the chunk, plant header-shaped lies past it (a
	// plausible meta with a wrong sum, an impossible size), zero a stretch.
	_, _, segs := fuzzStore(f).log.SegmentSnapshot()
	seg := segs[1]
	lie := binary.LittleEndian.AppendUint64(nil, 0xfeed)
	lie = binary.LittleEndian.AppendUint64(lie, 7|10<<16)
	f.Add(seg+8, []byte{0xff, 0xff})
	f.Add(seg+4096+3*256+64, binary.LittleEndian.AppendUint64(lie, 1))
	f.Add(seg+4096+5*256+128, binary.LittleEndian.AppendUint64(nil, 1<<40))
	f.Add(seg+4096+2*256+24, make([]byte, 16))
	// Aimed at a fitted last level (48 slots persisted in a 64-slot block):
	// its last line, the first line of the block's slack behind it, and its
	// capacity and count words in both of the shard's manifest slots (which
	// fail their checksum, or would reattach the table a line off).
	seed := fuzzStore(f)
	last := seed.shards[0].last.t
	f.Add(last.Offset()+last.SizeBytes()-256, []byte("garbage in the table's last line"))
	f.Add(last.Offset()+last.SizeBytes(), []byte("garbage in the block's slack"))
	for slot := int64(0); slot < 2; slot++ {
		capWord := seed.shards[0].manifest.off + slot*seed.shards[0].manifest.slotBytes + manifestHeader + 3*8
		f.Add(capWord, binary.LittleEndian.AppendUint64(nil, 48+16))
		f.Add(capWord, binary.LittleEndian.AppendUint64(nil, 48-16))
		f.Add(capWord+8, binary.LittleEndian.AppendUint64(nil, 49))
	}

	f.Fuzz(func(t *testing.T, off int64, junk []byte) {
		if len(junk) == 0 || len(junk) > 4096 {
			return
		}
		s := fuzzStore(t)
		if off < 0 {
			off = -off
		}
		off %= s.arena.Capacity()
		s.arena.TamperDurable(off, junk)
		s.Crash()
		if err := s.Recover(simclock.New(0)); err != nil {
			return // a clean refusal is a valid outcome
		}
		se := s.NewSession(simclock.New(0))
		for i := 0; i < 64; i += 7 {
			// Values may be lost or stale depending on what was smashed; the
			// read path just must not panic or fault.
			if _, _, err := se.Get([]byte(fmt.Sprintf("fz-%04d", i))); err != nil {
				return
			}
		}
	})
}
