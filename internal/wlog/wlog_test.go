package wlog

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

func newTestLog(t *testing.T, capacity int64) *Log {
	t.Helper()
	arena := pmem.NewArena(device.New(device.OptanePmem), capacity+1<<16)
	l, err := New(arena, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendRead(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	key, val := []byte("key-0001"), []byte("value-0001")
	lsn, err := ap.AppendEntry(c, key, val, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.Read(c, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if e.LSN != lsn || !bytes.Equal(e.Key, key) || !bytes.Equal(e.Value, val) || e.Tombstone() {
		t.Fatalf("read back %+v", e)
	}
}

func TestTombstoneFlag(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	lsn, err := ap.AppendEntry(c, []byte("k"), nil, FlagTombstone)
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.Read(c, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Tombstone() || len(e.Value) != 0 || string(e.Key) != "k" {
		t.Fatalf("tombstone round trip failed: %+v", e)
	}
}

// TestEmptyEntryIsAnEntry: an empty key with an empty value and no flags has
// an all-zero meta word. It is still an entry — acknowledged like any other —
// so Read returns it, and the scanner, which takes a zero sum word (not a
// zero meta word) for the unused rest of a reservation, returns it and every
// entry after it in the same line, also after a crash.
func TestEmptyEntryIsAnEntry(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	lsn0, err := ap.AppendEntry(c, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn1, err := ap.AppendEntry(c, []byte("k"), []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	if lsn1/lineSize != lsn0/lineSize {
		t.Fatalf("entries at %d and %d do not share a line", lsn0, lsn1)
	}
	check := func(when string) {
		t.Helper()
		if e, err := l.Read(c, lsn0); err != nil || len(e.Key) != 0 || len(e.Value) != 0 || e.Flags != 0 {
			t.Fatalf("%s: Read(empty entry) = %+v, %v", when, e, err)
		}
		if e, err := l.Read(c, lsn1); err != nil || string(e.Key) != "k" || string(e.Value) != "v" {
			t.Fatalf("%s: Read(entry after it) = %+v, %v", when, e, err)
		}
		var got []int64
		if err := l.Scan(c, l.Base(), func(e Entry) bool { got = append(got, e.LSN); return true }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []int64{lsn0, lsn1}) {
			t.Fatalf("%s: scan = %v, want [%d %d]", when, got, lsn0, lsn1)
		}
	}
	check("before crash")
	l.arena.Crash()
	check("after crash")
}

func TestBatchingPersistsAtChunkBoundary(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	dev := l.arena.Device()
	before := dev.Stats().WriteOps
	// Entries of 64 bytes (16 B header + 8 B key + 40 B value): 64 fill one
	// 4 KB chunk.
	val := bytes.Repeat([]byte{0x11}, 40)
	var lastOps int64
	for i := 0; i < 63; i++ {
		if _, err := ap.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
			t.Fatal(err)
		}
		lastOps = dev.Stats().WriteOps
	}
	if lastOps != before {
		t.Fatalf("writes persisted before chunk sealed: %d ops", lastOps-before)
	}
	if _, err := ap.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
		t.Fatal(err)
	}
	after := dev.Stats()
	if after.WriteOps != before+1 {
		t.Fatalf("sealing should be one batched write, got %d", after.WriteOps-before)
	}
	if after.WriteAmplification() != 1.0 {
		t.Fatalf("batched log write should have WA=1, got %v", after.WriteAmplification())
	}
}

func TestLargeEntrySpansChunks(t *testing.T) {
	l := newTestLog(t, 1<<22)
	c := simclock.New(0)
	ap := l.NewAppender()
	big := bytes.Repeat([]byte{0x5A}, 64<<10) // 64 KB value, as in Figure 17
	lsn, err := ap.AppendEntry(c, []byte("bigkey"), big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	e, err := l.Read(c, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Value, big) {
		t.Fatal("large value corrupted")
	}
	// A following small entry must still work.
	lsn2, err := ap.AppendEntry(c, []byte("small"), []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2, err := l.Read(c, lsn2); err != nil || string(e2.Key) != "small" {
		t.Fatalf("entry after large entry broken: %v %v", e2, err)
	}
}

func TestScanInOrder(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if _, err := ap.AppendEntry(c, key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	var got []string
	err := l.Scan(c, l.Base(), func(e Entry) bool {
		got = append(got, string(e.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scanned %d entries, want %d", len(got), n)
	}
	for i, k := range got {
		if want := fmt.Sprintf("key-%04d", i); k != want {
			t.Fatalf("entry %d out of order: key %q, want %q", i, k, want)
		}
	}
}

func TestScanFromMidpoint(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	var mid int64
	for i := 0; i < 100; i++ {
		lsn, err := ap.AppendEntry(c, []byte("keykeyke"), []byte("v"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			mid = lsn
		}
	}
	ap.Flush(c)
	count := 0
	l.Scan(c, mid, func(e Entry) bool { count++; return true })
	if count != 50 {
		t.Fatalf("scan from midpoint returned %d entries, want 50", count)
	}
}

func TestScanStops(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	for i := 0; i < 10; i++ {
		ap.AppendEntry(c, []byte("k"), []byte("v"), 0)
	}
	ap.Flush(c)
	count := 0
	l.Scan(c, l.Base(), func(e Entry) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("scan did not stop early: %d", count)
	}
}

func TestCrashLosesUnflushedTail(t *testing.T) {
	arena := pmem.NewArena(device.New(device.OptanePmem), 1<<21)
	l, err := New(arena, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	ap := l.NewAppender()
	// Fill exactly one chunk (sealed, durable) then a partial chunk: 64-byte
	// entries, 64 per 4 KB chunk.
	val := bytes.Repeat([]byte{0x22}, 40)
	for i := 0; i < 64; i++ {
		if _, err := ap.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 64; i < 76; i++ {
		if _, err := ap.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	arena.Crash()
	var survivors []int64
	l.Scan(c, l.Base(), func(e Entry) bool {
		survivors = append(survivors, e.LSN)
		return true
	})
	if len(survivors) != 64 {
		t.Fatalf("%d entries survived crash, want exactly the sealed 64", len(survivors))
	}
}

func TestMultipleAppendersInterleave(t *testing.T) {
	l := newTestLog(t, 1<<22)
	c1, c2 := simclock.New(0), simclock.New(0)
	a1, a2 := l.NewAppender(), l.NewAppender()
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		if _, err := a1.AppendEntry(c1, fmt.Appendf(nil, "ap1-%04d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a2.AppendEntry(c2, fmt.Appendf(nil, "ap2-%04d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	a1.Flush(c1)
	a2.Flush(c2)
	count := 0
	l.Scan(simclock.New(0), l.Base(), func(e Entry) bool {
		if seen[string(e.Key)] {
			t.Fatalf("duplicate key %q in scan", e.Key)
		}
		seen[string(e.Key)] = true
		count++
		return true
	})
	if count != 600 {
		t.Fatalf("scanned %d entries, want 600", count)
	}
}

func TestLogFull(t *testing.T) {
	l := newTestLog(t, 4*DefaultChunkSize) // minimal capacity: 4 chunk-sized segments
	c := simclock.New(0)
	ap := l.NewAppender()
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = ap.AppendEntry(c, []byte("12345678"), bytes.Repeat([]byte{1}, 100), 0); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected ErrLogFull")
	}
}

func TestSegmentReclaim(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	var lsns []int64
	// Fill several segments.
	payload := bytes.Repeat([]byte{7}, 1000)
	for i := 0; l.Tail() < l.SegmentSize()*4; i++ {
		lsn, err := ap.AppendEntry(c, []byte("12345678"), payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	ap.Flush(c)
	live0 := l.LiveBytes()
	cut := l.SegmentSize() * 3
	freed := l.FreeBefore(cut)
	if freed <= 0 {
		t.Fatal("nothing freed")
	}
	if l.LiveBytes() >= live0 {
		t.Fatal("live bytes did not shrink")
	}
	if l.Base() != cut {
		t.Fatalf("Base = %d, want %d", l.Base(), cut)
	}
	// Reads below the cut return ErrReclaimed; above still work.
	var below, above int64 = -1, -1
	for _, lsn := range lsns {
		if lsn < cut && below < 0 {
			below = lsn
		}
		if lsn >= cut {
			above = lsn
		}
	}
	if _, err := l.Read(c, below); err != ErrReclaimed {
		t.Fatalf("read below cut: %v, want ErrReclaimed", err)
	}
	if e, err := l.Read(c, above); err != nil || !bytes.Equal(e.Value, payload) {
		t.Fatalf("read above cut failed: %v", err)
	}
	// Scan skips the freed region and survives.
	n := 0
	l.Scan(c, l.Base()-l.SegmentSize(), func(e Entry) bool { n++; return true })
	if n == 0 {
		t.Fatal("scan found nothing above the cut")
	}
	for _, lsn := range lsns {
		if lsn >= cut {
			// every surviving entry must be scannable
			break
		}
	}
	// Freed segments are reusable: new appends succeed past the old capacity.
	for i := 0; i < 200; i++ {
		if _, err := ap.AppendEntry(c, []byte("12345678"), payload, 0); err != nil {
			t.Fatalf("append after reclaim: %v", err)
		}
	}
}

func TestReclaimRespectsCapacity(t *testing.T) {
	// Without GC the log fills; after FreeBefore it accepts writes again.
	l := newTestLog(t, 64*DefaultChunkSize)
	c := simclock.New(0)
	ap := l.NewAppender()
	payload := bytes.Repeat([]byte{1}, 512)
	var err error
	i := 0
	for ; i < 100000; i++ {
		if _, err = ap.AppendEntry(c, []byte("12345678"), payload, 0); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected log to fill")
	}
	l.FreeBefore(l.Tail() - l.SegmentSize()) // drop all but the tail segment(s)
	if _, err := ap.AppendEntry(c, []byte("12345678"), payload, 0); err != nil {
		t.Fatalf("append after GC: %v", err)
	}
}

func TestOversizeFieldsRejected(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	ap := l.NewAppender()
	if _, err := ap.AppendEntry(c, bytes.Repeat([]byte{1}, 70000), nil, 0); err == nil {
		t.Fatal("expected key-too-long error")
	}
}

func TestReadErrors(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	if _, err := l.Read(c, -1); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := l.Read(c, l.Base()); err == nil {
		t.Fatal("expected no-entry error for unwritten LSN")
	}
}

// Property: any sequence of appends reads back exactly, via both Read and
// Scan, regardless of entry sizes.
func TestAppendScanRoundTripProperty(t *testing.T) {
	f := func(vals [][]byte) bool {
		l := newTestLog(t, 1<<22)
		c := simclock.New(0)
		ap := l.NewAppender()
		type rec struct {
			lsn int64
			val []byte
		}
		var recs []rec
		for i, v := range vals {
			if len(v) > 1000 {
				v = v[:1000]
			}
			key := []byte(fmt.Sprintf("key-%06d", i))
			lsn, err := ap.AppendEntry(c, key, v, 0)
			if err != nil {
				return false
			}
			recs = append(recs, rec{lsn, v})
		}
		ap.Flush(c)
		for _, r := range recs {
			e, err := l.Read(c, r.lsn)
			if err != nil || !bytes.Equal(e.Value, r.val) {
				return false
			}
		}
		n := 0
		l.Scan(c, l.Base(), func(e Entry) bool { n++; return true })
		return n == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEntrySizePadding(t *testing.T) {
	if EntrySize(0, 0) != 16 {
		t.Fatalf("EntrySize(0,0) = %d", EntrySize(0, 0))
	}
	if EntrySize(1, 0) != 24 {
		t.Fatalf("EntrySize(1,0) = %d", EntrySize(1, 0))
	}
	if EntrySize(8, 8) != 32 {
		t.Fatalf("EntrySize(8,8) = %d", EntrySize(8, 8))
	}
	if EntrySize(8, 9)%8 != 0 {
		t.Fatal("entry sizes must stay 8-byte aligned")
	}
}

// Property: every appended LSN reads back its own entry until its segment is
// reclaimed, across segment boundaries and chunk padding.
func TestLSNMappingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		l := newTestLog(t, 4<<20)
		c := simclock.New(0)
		ap := l.NewAppender()
		type rec struct {
			lsn int64
			n   int
		}
		var recs []rec
		for i, sz := range sizes {
			n := int(sz) % 3000
			key := []byte(fmt.Sprintf("k%06d", i))
			lsn, err := ap.AppendEntry(c, key, bytes.Repeat([]byte{byte(i)}, n), 0)
			if err != nil {
				return false
			}
			recs = append(recs, rec{lsn, n})
		}
		ap.Flush(c)
		// LSNs must be strictly increasing (logical address space).
		for i := 1; i < len(recs); i++ {
			if recs[i].lsn <= recs[i-1].lsn {
				return false
			}
		}
		for i, r := range recs {
			e, err := l.Read(c, r.lsn)
			if err != nil || string(e.Key) != fmt.Sprintf("k%06d", i) || len(e.Value) != r.n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScanWatermarkLosesNothing is the replication shipper's core
// invariant: a scanner that repeatedly exports [cursor, MinNextLSN) while
// appenders run concurrently must see every entry, in particular across the
// chunk-turnover window. The tail used to advance inside reserveChunk before
// the appender's nextLSN floor was published, so a watermark read in that
// window covered a reserved-but-still-empty chunk; the scan skipped its zero
// headers, the cursor moved past it, and the entries appended into it afterwards
// were silently never shipped.
func TestConcurrentScanWatermarkLosesNothing(t *testing.T) {
	l := newTestLog(t, 8<<20)
	c := simclock.New(0)
	// The file backend persists the segment directory from the meta hook, so
	// a reservation that maps a segment holds the metadata mutex across an
	// fsync — tens of microseconds in which the tail already covers the new
	// chunk. Model that width here.
	l.SetMetaHook(func(int64, int64, map[int64]int64) { time.Sleep(20 * time.Microsecond) })
	const (
		workers = 4
		rounds  = 120
	)
	var (
		stop     atomic.Bool
		appended atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ap := l.NewAppender()
			clk := simclock.New(0)
			// Tiny entries keep chunks turning over fast: every turnover is
			// one reserve window the scanner must not trip over.
			key := make([]byte, 12)
			val := []byte("v")
			for i := 0; !stop.Load(); i++ {
				copy(key, fmt.Appendf(key[:0], "w%d-%07d", w, i))
				if _, err := ap.AppendEntry(clk, key, val, 0); err != nil {
					t.Error(err)
					break
				}
				appended.Add(1)
				if i%64 == 63 {
					// Pace the writers so the scanner's FreeBefore keeps the
					// small log from filling.
					time.Sleep(20 * time.Microsecond)
				}
			}
			if err := ap.Flush(clk); err != nil {
				t.Error(err)
			}
		}(w)
	}

	var scanned int64
	cursor := l.SegmentSize()
	scanTo := func(to int64) {
		if to <= cursor {
			return
		}
		if err := l.ScanRange(c, cursor, to, func(Entry) bool { scanned++; return true }); err != nil {
			t.Error(err)
		}
		cursor = to
	}
	// Seal-then-scan-then-free each round is the WAIT shipping pattern:
	// SealAll detaches every appender's chunk, so their very next Append
	// re-reserves right as the watermark is read — the hostile interleaving
	// for the reserve window — and FreeBefore recycles shipped segments the
	// way log GC does behind a replica's cursor.
	for r := 0; r < rounds && !t.Failed(); r++ {
		// Pace on appender progress so every round races a live turnover
		// rather than spinning before the workers are scheduled.
		for waitFor := appended.Load() + int64(workers); appended.Load() < waitFor; {
			time.Sleep(time.Microsecond)
		}
		if err := l.SealAll(c); err != nil {
			t.Fatal(err)
		}
		scanTo(l.MinNextLSN())
		l.FreeBefore(cursor)
	}
	stop.Store(true)
	wg.Wait()
	if err := l.SealAll(c); err != nil {
		t.Fatal(err)
	}
	scanTo(l.MinNextLSN())

	// Entry ranges scanned are disjoint and nothing above the cursor is ever
	// freed, so every completed append must have been seen exactly once.
	if scanned != appended.Load() {
		t.Fatalf("incremental watermark scans saw %d of %d appended entries", scanned, appended.Load())
	}
}

// TestReservationsAreLinesSizedByRecentFlushes pins the reservation policy: a
// full chunk until the appender has flushed, then whole lines covering the
// largest of its last four flush-to-flush volumes, and chunks again for
// whatever outgrows that before the next flush. The gaps that leaves — the
// zero rest of a line, unused lines, the abandoned rest of a chunk — are
// skipped line by line, from any starting point.
func TestReservationsAreLinesSizedByRecentFlushes(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	a, b := l.NewAppender(), l.NewAppender()
	var want []int64
	put := func(ap *Appender, n int) (first int64) {
		t.Helper()
		for i := 0; i < n; i++ {
			lsn, err := ap.AppendEntry(c, []byte("k-000000"), []byte("v-000000"), 0) // 32 B
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = lsn
			}
			want = append(want, lsn)
		}
		return first
	}
	base := l.Tail()
	// Never flushed: a full chunk each, as the paper batches.
	if got := put(a, 1); got != base {
		t.Fatalf("first reservation at %d, want %d", got, base)
	}
	if got := put(b, 1); got != base+DefaultChunkSize {
		t.Fatalf("second appender's chunk at %d, want %d", got, base+DefaultChunkSize)
	}
	a.Flush(c)
	b.Flush(c)
	// Depth-1 traffic: one 32 B entry per flush costs one line, whichever
	// appender is next.
	next := base + 2*DefaultChunkSize
	for i := 0; i < 6; i++ {
		ap := a
		if i%2 == 1 {
			ap = b
		}
		if got := put(ap, 1); got != next {
			t.Fatalf("depth-1 reservation %d at %d, want %d", i, got, next)
		}
		ap.Flush(c)
		next += lineSize
	}
	// A window of 16 outgrows a's one line: the first 8 entries fill it, the
	// rest go to a full chunk whose tail the flush abandons.
	if got := put(a, 16); got != next {
		t.Fatalf("window at %d, want %d", got, next)
	}
	if got, w := want[len(want)-8], next+lineSize; got != w {
		t.Fatalf("overflow chunk at %d, want %d", got, w)
	}
	a.Flush(c)
	next += lineSize + DefaultChunkSize
	// The next window gets the two lines the last one needed, in one piece.
	if got := put(a, 16); got != next || want[len(want)-1] != next+15*32 {
		t.Fatalf("sized window at %d..%d, want %d..%d", got, want[len(want)-1], next, next+15*32)
	}
	a.Flush(c)
	next += 2 * lineSize
	if got := l.Tail(); got != next {
		t.Fatalf("tail %d, want %d", got, next)
	}
	// Small windows between large ones do not shrink the reservation — a large
	// window after a small one still fits in one piece — until four in a row
	// have pushed the large ones out of the ring.
	for i := 0; i < 2; i++ {
		if got := put(a, 1); got != next {
			t.Fatalf("small window %d at %d, want %d", i, got, next)
		}
		a.Flush(c)
		next += 2 * lineSize
	}
	if got := put(a, 16); got != next || want[len(want)-1] != next+15*32 {
		t.Fatalf("window after small ones at %d..%d, want %d..%d", got, want[len(want)-1], next, next+15*32)
	}
	a.Flush(c)
	next += 2 * lineSize
	for i := 0; i < 4; i++ {
		put(a, 1)
		a.Flush(c)
		next += 2 * lineSize
	}
	if got := put(a, 1); got != next {
		t.Fatalf("fifth small window at %d, want %d", got, next)
	}
	a.Flush(c)
	if got, w := l.Tail(), next+lineSize; got != w {
		t.Fatalf("tail %d after four small windows in a row, want one line past %d", got, next)
	}

	scan := func(from int64) (got []int64) {
		if err := l.ScanRange(c, from, l.Tail(), func(e Entry) bool {
			got = append(got, e.LSN)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := scan(l.Base()); !slices.Equal(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	// From inside a zero gap: the rest of that line is skipped, nothing else.
	if got := scan(want[3] + 32); !slices.Equal(got, want[4:]) {
		t.Fatalf("scan from a gap = %v, want %v", got, want[4:])
	}
}

// TestScanChargesOnFullChunkLogs pins the scanner's ReadSeq charges on a log
// made of full chunks — no flush before the end — with entries larger than a
// chunk in it: one read per 4 KiB block entered at its start or at the scan's
// start, one chunk for an oversized entry whatever its length, nothing for
// the rest of the block it ends in. The numbers are the chunk-skipping
// scanner's (the parent's), which the line-skipping one must reproduce for
// the virtual-time figures to stay where they were.
func TestScanChargesOnFullChunkLogs(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	a, b := l.NewAppender(), l.NewAppender()
	small := func(ap *Appender, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := ap.AppendEntry(c, []byte("k-000000"), []byte("v-000000"), 0); err != nil { // 32 B
				t.Fatal(err)
			}
		}
	}
	big := func(ap *Appender, valLen int) {
		t.Helper()
		if _, err := ap.AppendEntry(c, []byte("k-big000"), bytes.Repeat([]byte{7}, valLen), 0); err != nil {
			t.Fatal(err)
		}
	}
	small(a, 3)
	big(a, 5000) // 5024 B in two chunks of its own; the next two entries follow it there
	small(a, 2)
	small(b, 1)
	big(b, 8192-24) // exactly two chunks
	small(b, 1)
	big(a, 12000)
	small(a, 200)
	a.Flush(c)
	b.Flush(c)
	if got := l.Tail() - l.Base(); got != 12*DefaultChunkSize {
		t.Fatalf("log spans %d B, want 12 chunks", got)
	}
	for _, tc := range []struct {
		from             int64 // relative to Base
		entries          int
		readOps, readLen int64
	}{
		{0, 210, 8, 32768},
		{DefaultChunkSize + 5024, 206, 7, 27904}, // right behind the first oversized entry
		{DefaultChunkSize + 6000, 204, 7, 26880}, // in the zero rest of its reservation
	} {
		before := l.arena.Device().Stats()
		n := 0
		if err := l.ScanRange(simclock.New(0), l.Base()+tc.from, l.Tail(), func(Entry) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		after := l.arena.Device().Stats()
		if ops, read := after.ReadOps-before.ReadOps, after.MediaBytesRead-before.MediaBytesRead; n != tc.entries || ops != tc.readOps || read != tc.readLen {
			t.Errorf("scan from +%d: %d entries, %d reads of %d B; want %d, %d, %d", tc.from, n, ops, read, tc.entries, tc.readOps, tc.readLen)
		}
	}
}

// TestMetaHookRunsOnSegmentMapChanges: the hook is the file backend's
// manifest fdatasync, so it must run when a reservation maps a segment and
// when FreeBefore unmaps one, not per reservation; the tail it is given
// bounds every reservation made before its next run; and CloseMeta hands over
// the exact tail and ends reservations.
func TestMetaHookRunsOnSegmentMapChanges(t *testing.T) {
	l := newTestLog(t, 1<<20) // four 256 KiB segments
	c := simclock.New(0)
	var calls int
	var lastNext int64
	var lastSegs int
	l.SetMetaHook(func(head, next int64, segs map[int64]int64) {
		calls++
		lastNext, lastSegs = next, len(segs)
	})
	ap := l.NewAppender()
	val := make([]byte, 1000)
	var lsns []int64
	for l.Tail() < 3*l.SegmentSize() { // fills segments 1 and 2
		lsn, err := ap.AppendEntry(c, []byte("12345678"), val, 0)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if lsn >= lastNext {
			t.Fatalf("LSN %d handed out above the last recorded tail bound %d", lsn, lastNext)
		}
	}
	if calls != 2 || lastSegs != 2 || lastNext != 3*l.SegmentSize() {
		t.Fatalf("after mapping 2 segments: %d hook calls, %d segments, bound %d", calls, lastSegs, lastNext)
	}
	ap.Flush(c)
	if l.FreeBefore(2*l.SegmentSize()) == 0 {
		t.Fatal("nothing freed")
	}
	if calls != 3 || lastSegs != 1 {
		t.Fatalf("after freeing a segment: %d hook calls, %d segments", calls, lastSegs)
	}
	l.SyncMeta()
	if calls != 4 || lastNext != 3*l.SegmentSize() {
		t.Fatalf("SyncMeta: %d hook calls, bound %d", calls, lastNext)
	}

	// An open chunk, then Close: the chunk stays usable, the tail is exact.
	if _, err := ap.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
		t.Fatal(err)
	}
	before := calls
	l.CloseMeta()
	if calls != before+1 || lastNext != l.Tail() || lastNext%l.SegmentSize() == 0 {
		t.Fatalf("CloseMeta: %d hook calls, tail %d, log tail %d", calls, lastNext, l.Tail())
	}
	if _, err := ap.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
		t.Fatalf("append into a chunk reserved before CloseMeta: %v", err)
	}
	if _, err := l.NewAppender().AppendEntry(c, []byte("12345678"), val, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("reservation after CloseMeta = %v, want ErrClosed", err)
	}
}

// TestDurableLSNMovesOnlyAtBarriers: the ship frontier stays put while chunks
// seal mid-batch (they are only written back), never passes MinNextLSN, and a
// barrier — Flush, SyncAll — moves it past everything appended before it,
// waking the durable hook.
func TestDurableLSNMovesOnlyAtBarriers(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	var woken atomic.Int64
	l.SetDurableHook(func() { woken.Add(1) })
	a, b := l.NewAppender(), l.NewAppender()
	val := bytes.Repeat([]byte{0x11}, 40)
	d0 := l.DurableLSN()
	if _, err := b.AppendEntry(c, []byte("12345678"), val, 0); err != nil { // b holds an open chunk
		t.Fatal(err)
	}
	var last int64
	for i := 0; i < 4*64; i++ { // four 4 KB chunks of 64 B entries, three sealed
		lsn, err := a.AppendEntry(c, []byte("12345678"), val, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
		if d := l.DurableLSN(); d != d0 {
			t.Fatalf("append %d moved DurableLSN %d -> %d without a barrier", i, d0, d)
		}
	}
	if woken.Load() != 0 {
		t.Fatalf("sealed chunks woke the durable hook %d times", woken.Load())
	}
	if err := a.Flush(c); err != nil {
		t.Fatal(err)
	}
	// b's open chunk is older than a's entries and not written back: the
	// frontier stops at it.
	if d := l.DurableLSN(); d > l.MinNextLSN() || d > last {
		t.Fatalf("after a's Flush DurableLSN = %d, past b's unwritten entry (MinNextLSN %d, a's last %d)", d, l.MinNextLSN(), last)
	}
	// SyncAll writes b's entry back and barriers: the frontier reaches b's
	// open chunk position, which is as far as any append can be ruled out.
	l.SyncAll(c)
	if d := l.DurableLSN(); d != l.MinNextLSN() {
		t.Fatalf("after SyncAll DurableLSN = %d, want MinNextLSN %d", d, l.MinNextLSN())
	}
	if woken.Load() == 0 {
		t.Fatal("SyncAll advanced the frontier without waking the durable hook")
	}
	// SealAll detaches b's chunk too: the frontier passes everything.
	if err := l.SealAll(c); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableLSN(); d <= last || d != l.Tail() {
		t.Fatalf("after SealAll DurableLSN = %d, want the tail %d past %d", d, l.Tail(), last)
	}
}

// TestFlushMovesFrontierOnlyWithAHook: with no durable hook installed — no
// replication shipper listening — an appender's Flush is the medium barrier
// alone and leaves the ship frontier where it was; SyncAll moves it, and once
// a hook is installed every Flush does.
func TestFlushMovesFrontierOnlyWithAHook(t *testing.T) {
	l := newTestLog(t, 1<<20)
	c := simclock.New(0)
	a := l.NewAppender()
	val := bytes.Repeat([]byte{0x22}, 32)
	appendFlush := func() {
		t.Helper()
		if _, err := a.AppendEntry(c, []byte("12345678"), val, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(c); err != nil {
			t.Fatal(err)
		}
	}
	d0 := l.DurableLSN()
	appendFlush()
	if d := l.DurableLSN(); d != d0 {
		t.Fatalf("Flush with no hook moved DurableLSN %d -> %d", d0, d)
	}
	l.SyncAll(c)
	if d := l.DurableLSN(); d != l.Tail() {
		t.Fatalf("after SyncAll DurableLSN = %d, want the tail %d", d, l.Tail())
	}
	var woken atomic.Int64
	l.SetDurableHook(func() { woken.Add(1) })
	appendFlush()
	if d := l.DurableLSN(); d != l.Tail() || woken.Load() != 1 {
		t.Fatalf("Flush with a hook: DurableLSN = %d (tail %d), hook woken %d times", d, l.Tail(), woken.Load())
	}
}
