package wlog

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// TestTornChunkPersistDetected is the regression test for the torn-write bug
// the crash sweep surfaced: a batch (chunk) persist interrupted by power
// failure commits only a prefix of its 256 B media lines, so entries past the
// cut keep a durable header but lose their payload. Before entries carried a
// checksum, recovery's Scan replayed those entries with zeroed values —
// acknowledged data silently corrupted into different data. With the checksum
// the torn tail is detected and dropped.
func TestTornChunkPersistDetected(t *testing.T) {
	arena := pmem.NewArena(device.New(device.OptanePmem), 1<<21)
	l, err := New(arena, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	ap := l.NewAppender()

	// e1 fills [0, 232) of the chunk — entirely inside media line 0.
	// e2 starts at 232: its 24 B header lands in line 0 but its payload is
	// all in line 1.
	k1, v1 := []byte("key-aaaa"), bytes.Repeat([]byte{0xA1}, 200)
	k2, v2 := []byte("key-bbbb"), bytes.Repeat([]byte{0xB2}, 100)
	lsn1, err := ap.Append(c, xhash.Sum64(k1), k1, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := ap.Append(c, xhash.Sum64(k2), k2, v2, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Power fails on the seal persist, committing only the first line.
	arena.Device().InstallFaultPlan(&device.FaultPlan{CrashAtPersist: 1, Tear: device.TearFirstLine})
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	arena.Device().InstallFaultPlan(nil)
	arena.Crash()

	// e1 survived intact.
	e, err := l.Read(c, lsn1)
	if err != nil {
		t.Fatalf("reading intact entry: %v", err)
	}
	if !bytes.Equal(e.Value, v1) {
		t.Fatal("intact entry corrupted")
	}
	// e2's durable header is valid but its payload never committed: reading
	// it must fail loudly, not return zeroed bytes.
	if _, err := l.Read(c, lsn2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading torn entry = %v, want ErrCorrupt", err)
	}
	// Recovery's scan must replay exactly the intact prefix.
	var got []int64
	if err := l.Scan(c, l.Base(), func(e Entry) bool {
		got = append(got, e.LSN)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != lsn1 {
		t.Fatalf("scan after torn persist returned %v, want [%d]", got, lsn1)
	}
}

// TestTornPersistMidEntry tears the cut through the middle of a single large
// entry: the committed part passes no checksum, so nothing survives.
func TestTornPersistMidEntry(t *testing.T) {
	arena := pmem.NewArena(device.New(device.OptanePmem), 1<<21)
	l, err := New(arena, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	ap := l.NewAppender()
	key, val := []byte("bigkey"), bytes.Repeat([]byte{0xEE}, 3000) // ~12 lines
	lsn, err := ap.Append(c, xhash.Sum64(key), key, val, 0)
	if err != nil {
		t.Fatal(err)
	}
	arena.Device().InstallFaultPlan(&device.FaultPlan{CrashAtPersist: 1, Tear: device.TearHalf})
	ap.Flush(c)
	arena.Device().InstallFaultPlan(nil)
	arena.Crash()
	if _, err := l.Read(c, lsn); !errors.Is(err, ErrCorrupt) {
		// A fully-lost header reads as "no entry"; either way it must error.
		if err == nil {
			t.Fatal("torn entry read back successfully")
		}
	}
	n := 0
	l.Scan(c, l.Base(), func(Entry) bool { n++; return true })
	if n != 0 {
		t.Fatalf("scan replayed %d torn entries", n)
	}
}

// TestFreeBeforeFrozenAfterPowerFailure: a dying process must not free (and
// durably zero) log segments — the durable manifests may still point there.
func TestFreeBeforeFrozenAfterPowerFailure(t *testing.T) {
	arena := pmem.NewArena(device.New(device.OptanePmem), 1<<21)
	l, err := New(arena, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	ap := l.NewAppender()
	payload := bytes.Repeat([]byte{7}, 1000)
	var first int64 = -1
	for i := 0; l.Tail() < l.SegmentSize()*3; i++ {
		lsn, err := ap.Append(c, uint64(i), []byte("12345678"), payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = lsn
		}
	}
	ap.Flush(c)
	plan := &device.FaultPlan{CrashAtPersist: 1}
	arena.Device().InstallFaultPlan(plan)
	arena.Persist(c, 0, 1) // trigger the failure
	if freed := l.FreeBefore(l.Tail()); freed != 0 {
		t.Fatalf("post-failure FreeBefore freed %d bytes", freed)
	}
	arena.Device().InstallFaultPlan(nil)
	arena.Crash()
	if e, err := l.Read(c, first); err != nil || !bytes.Equal(e.Value, payload) {
		t.Fatalf("entry lost to post-failure GC: %v", err)
	}
}

// TestTornLineReservationKeepsNeighbour: once reservations are runs of lines,
// one 4 KiB block can hold a reservation whose persist tore and, right after
// it, another appender's reservation that was acknowledged. A scan that gave
// up on the rest of the block at the torn entry would lose the neighbour; the
// line-by-line rule finds it.
func TestTornLineReservationKeepsNeighbour(t *testing.T) {
	arena := pmem.NewArena(device.New(device.OptanePmem), 1<<21)
	l, err := New(arena, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	a, b := l.NewAppender(), l.NewAppender()
	val := bytes.Repeat([]byte{0xA5}, 64)
	put := func(ap *Appender, key string) int64 {
		t.Helper()
		lsn, err := ap.Append(c, xhash.Sum64([]byte(key)), []byte(key), val, 0)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	// First flushes size the next reservations: a wrote 6 entries of 96 B
	// (three lines), b one (one line). Both drew from full chunks so far.
	var want []int64
	for i := 0; i < 6; i++ {
		want = append(want, put(a, "a-warm"))
	}
	want = append(want, put(b, "b-warm"))
	a.Flush(c)
	b.Flush(c)

	// a's window: six entries over three lines, not yet durable.
	var window []int64
	for i := 0; i < 6; i++ {
		window = append(window, put(a, "a-torn"))
	}
	// b's entry lands on the line after a's reservation and is made durable:
	// an acknowledged write.
	neighbour := put(b, "b-acked")
	b.Flush(c)
	if neighbour != window[0]+3*lineSize || neighbour/DefaultChunkSize != window[0]/DefaultChunkSize {
		t.Fatalf("neighbour at %d, torn window at %d: not adjacent reservations in one chunk", neighbour, window[0])
	}

	// Power fails on a's seal: only the first of its three lines commits.
	arena.Device().InstallFaultPlan(&device.FaultPlan{CrashAtPersist: 1, Tear: device.TearFirstLine})
	a.Flush(c)
	arena.Device().InstallFaultPlan(nil)
	arena.Crash()

	// Entries 0 and 1 of the window lie inside the committed line; entry 2
	// straddles the cut and everything after it is gone.
	want = append(want, window[0], window[1], neighbour)
	var got []int64
	if err := l.Scan(c, l.Base(), func(e Entry) bool {
		got = append(got, e.LSN)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("scan after torn line reservation = %v, want %v", got, want)
	}
	if _, err := l.Read(c, window[2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("entry across the cut read back: %v", err)
	}
}
