package wlog

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleondb/internal/simclock"
)

// fill appends entries until the log tail passes want, flushing so the data
// is sealed, and returns the entry LSNs.
func fill(t *testing.T, l *Log, c *simclock.Clock, ap *Appender, want int64) []int64 {
	t.Helper()
	val := bytes.Repeat([]byte{0xAB}, 2048)
	var lsns []int64
	for l.Tail() < want {
		lsn, err := ap.AppendEntry(c, []byte("hold-key"), val, 0)
		if err != nil {
			t.Fatalf("append at tail %d: %v", l.Tail(), err)
		}
		lsns = append(lsns, lsn)
	}
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	return lsns
}

// TestGCHoldClampsFreeBefore pins the replica-lag floor: FreeBefore may not
// release the segment containing a registered hold or anything above it, no
// matter how far the caller's target reaches; releasing the hold lifts the
// clamp.
func TestGCHoldClampsFreeBefore(t *testing.T) {
	l := newTestLog(t, 1<<21)
	c := simclock.New(0)
	ap := l.NewAppender()
	seg := l.SegmentSize()
	lsns := fill(t, l, c, ap, 3*seg+seg/2)

	// Pick a hold in the middle of the data and find the first entry at or
	// above it.
	hold := lsns[len(lsns)/2]
	l.HoldGC("replica:r1", hold)

	if got := l.GCFloor(); got != hold {
		t.Fatalf("GCFloor = %d, want hold %d", got, hold)
	}
	freed := l.FreeBefore(l.Tail())
	holdSeg := hold / seg * seg
	if got := l.Base(); got != holdSeg {
		t.Fatalf("Base after clamped free = %d, want %d", got, holdSeg)
	}
	if freed > holdSeg-seg {
		t.Fatalf("freed %d bytes past the hold", freed)
	}
	// Everything at and above the hold's segment must still be readable.
	for _, lsn := range lsns {
		if lsn < holdSeg {
			continue
		}
		e, err := l.Read(c, lsn)
		if err != nil {
			t.Fatalf("entry %d unreadable under hold: %v", lsn, err)
		}
		if !bytes.Equal(e.Key, []byte("hold-key")) {
			t.Fatalf("entry %d corrupted", lsn)
		}
	}

	// Moving the hold up releases more; releasing it entirely unclamps.
	l.HoldGC("replica:r1", l.Tail())
	l.FreeBefore(l.Tail())
	if got, want := l.Base(), l.Tail()/seg*seg; got != want {
		t.Fatalf("Base after hold moved to tail = %d, want %d", got, want)
	}
	l.ReleaseGCHold("replica:r1")
	if got, want := l.GCFloor(), l.MinNextLSN(); got != want {
		t.Fatalf("GCFloor after release = %d, want MinNextLSN %d", got, want)
	}
}

// TestGCFloorMinimumOfHolds checks that with several replicas the floor is
// the slowest one's.
func TestGCFloorMinimumOfHolds(t *testing.T) {
	l := newTestLog(t, 1<<21)
	c := simclock.New(0)
	ap := l.NewAppender()
	seg := l.SegmentSize()
	fill(t, l, c, ap, 2*seg)

	l.HoldGC("replica:a", seg+100)
	l.HoldGC("replica:b", seg+5000)
	if got := l.GCFloor(); got != seg+100 {
		t.Fatalf("GCFloor = %d, want slowest hold %d", got, seg+100)
	}
	l.ReleaseGCHold("replica:a")
	if got := l.GCFloor(); got != seg+5000 {
		t.Fatalf("GCFloor = %d, want remaining hold %d", got, seg+5000)
	}
	l.FreeBefore(l.Tail())
	if got := l.Base(); got != seg {
		t.Fatalf("Base = %d, want %d (hold in second segment)", got, seg)
	}
}

// TestHoldAndSnapshotUnderConcurrentFree is the regression for the
// FreeBefore/SegmentSnapshot/hold coordination: while a writer appends, a GC
// loop frees up to the tail, and a hold trails behind, (a) the base never
// passes the hold's segment, and (b) every SegmentSnapshot taken mid-free is
// internally consistent — it never references a segment the free already
// released. Run with -race this also proves the locking.
func TestHoldAndSnapshotUnderConcurrentFree(t *testing.T) {
	l := newTestLog(t, 1<<21)
	seg := l.SegmentSize()
	const holdID = "replica:lag"
	var holdAt atomic.Int64
	holdAt.Store(seg)
	l.HoldGC(holdID, seg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}

	// Writer: append ~5 log capacities worth so GC must recycle segments.
	const capacity = int64(1 << 21)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		c := simclock.New(0)
		ap := l.NewAppender()
		defer ap.Release(c)
		val := bytes.Repeat([]byte{0x3C}, 2048)
		total := int64(0)
		for total < 5*capacity {
			_, err := ap.AppendEntry(c, []byte("concurrent"), val, 0)
			if err != nil {
				// Log full: GC has not caught up yet. Flush what we have so
				// the hold mover can advance past it, then retry.
				ap.Flush(c)
				time.Sleep(100 * time.Microsecond)
				continue
			}
			total += int64(len(val))
			if total%(seg/4) < int64(len(val)) {
				ap.Flush(c)
			}
		}
		ap.Flush(c)
	}()

	// Hold mover: trail half a segment behind the tail, monotonically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			target := l.Tail() - seg/2
			if target < seg {
				target = seg
			}
			if target > holdAt.Load() {
				holdAt.Store(target)
				l.HoldGC(holdID, target)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// GC loop: always try to free everything; the hold must clamp it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.FreeBefore(l.Tail())
			// The hold only moves up, so reading it after the free gives an
			// upper bound on the clamp that was in effect.
			if base, h := l.Base(), holdAt.Load(); base > h/seg*seg {
				report("base passed the hold's segment")
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Snapshot loop: a snapshot taken mid-GC must never reference a freed
	// segment (every mapped segment lies at or above the snapshot's head).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			head, next, segs := l.SegmentSnapshot()
			for idx := range segs {
				if idx*seg < head && (idx+1)*seg <= next {
					report("snapshot references a freed segment")
					return
				}
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
