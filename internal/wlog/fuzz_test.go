package wlog

import (
	"bytes"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

// fuzzLog returns a log of 4 KiB segments whose first reservation — all of
// the first segment, at Base and below the tail — is free for the fuzzer to
// fill.
func fuzzLog(t testing.TB) *Log {
	l, err := New(pmem.NewArena(device.New(device.OptanePmem), 64<<10), 4*DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	ap := l.NewAppender()
	if _, err := ap.AppendEntry(c, []byte("k"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	return l
}

// seedChunk appends entries into a fresh log and returns its first n bytes.
func seedChunk(t testing.TB, n int, kvs ...[2][]byte) []byte {
	l := fuzzLog(t)
	c := simclock.New(0)
	ap := l.NewAppender()
	for _, kv := range kvs {
		if _, err := ap.AppendEntry(c, kv[0], kv[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Flush(c); err != nil {
		t.Fatal(err)
	}
	// The appender's chunk follows the one fuzzLog flushed.
	phys, _ := l.phys(l.Base() + DefaultChunkSize)
	return bytes.Clone(l.arena.Bytes(phys, int64(n)))
}

// FuzzLogScan writes arbitrary bytes into a mapped segment and scans them from
// an arbitrary start: ScanRange must never panic, and every entry it yields
// must read back identically through Read — the scanner believes nothing the
// point read would refuse.
func FuzzLogScan(f *testing.F) {
	k8, v8 := []byte("key-0008"), []byte("val-0008")
	// A 240 B entry, then a valid 32 B entry straddling the first line end.
	f.Add(seedChunk(f, 512, [2][]byte{k8, bytes.Repeat([]byte{0xA1}, 216)}, [2][]byte{k8, v8}), uint16(0))
	// One entry, then the zeroed tail of its reservation.
	f.Add(seedChunk(f, 1024, [2][]byte{k8, v8}), uint16(0))
	// The empty-key, empty-value entry (an all-zero meta word) and one after it.
	f.Add(seedChunk(f, 256, [2][]byte{nil, nil}, [2][]byte{k8, v8}), uint16(0))
	f.Add(seedChunk(f, 256, [2][]byte{nil, nil}, [2][]byte{k8, v8}), uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, from uint16) {
		l := fuzzLog(t)
		base := l.Base()
		phys, ok := l.phys(base)
		if !ok {
			t.Fatal("first chunk unmapped")
		}
		if len(data) > DefaultChunkSize {
			data = data[:DefaultChunkSize]
		}
		copy(l.arena.Bytes(phys, DefaultChunkSize), data)
		c := simclock.New(0)
		start := base + int64(from)%DefaultChunkSize
		var got []Entry
		if err := l.ScanRange(c, start, l.Tail(), func(e Entry) bool {
			got = append(got, Entry{LSN: e.LSN, Key: bytes.Clone(e.Key), Value: bytes.Clone(e.Value), Flags: e.Flags})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for i, e := range got {
			if e.LSN < start || (i > 0 && e.LSN <= got[i-1].LSN) {
				t.Fatalf("entry %d at LSN %d out of order (start %d)", i, e.LSN, start)
			}
			r, err := l.Read(c, e.LSN)
			if err != nil {
				t.Fatalf("scanned entry at LSN %d does not read back: %v", e.LSN, err)
			}
			if r.LSN != e.LSN || r.Flags != e.Flags || !bytes.Equal(r.Key, e.Key) || !bytes.Equal(r.Value, e.Value) {
				t.Fatalf("LSN %d: scan %+v, read %+v", e.LSN, e, r)
			}
		}
	})
}
