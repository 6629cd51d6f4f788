package core

import (
	"testing"

	"chameleondb/internal/simclock"
)

// allocsStore opens a store sized so the steady-state measurement never hits
// a structural event: MemTables big enough that no freeze fires during the
// measured runs, maintenance inline (no worker goroutines allocating in the
// background while AllocsPerRun counts).
func allocsStore(t *testing.T) *Store {
	t.Helper()
	cfg := TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 4096
	cfg.MaintenanceWorkers = 0
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAllocsGetInto asserts the embedded read path is allocation-free: a
// GET hit through GetInto with a reusable dst, and a GET miss, both do zero
// allocations per op. This is the engine half of the tentpole's
// "allocation-free from RESP frame to engine and back" contract — the server
// half is internal/server's TestAllocsWirePipelined.
func TestAllocsGetInto(t *testing.T) {
	s := allocsStore(t)
	se := s.NewSession(simclock.New(0)).(*Session)
	key := []byte("alloc-key")
	if err := se.Put(key, []byte("alloc-value-0123456789")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 256)
	miss := []byte("alloc-absent")

	if n := testing.AllocsPerRun(200, func() {
		out, ok, err := se.GetInto(key, dst)
		if err != nil || !ok || len(out) == 0 {
			t.Fatal("hit failed")
		}
	}); n != 0 {
		t.Fatalf("GetInto hit allocates %v per op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		_, ok, err := se.GetInto(miss, dst)
		if err != nil || ok {
			t.Fatal("miss failed")
		}
	}); n != 0 {
		t.Fatalf("GetInto miss allocates %v per op, want 0", n)
	}
}

// TestAllocsPut asserts the embedded write path is amortized allocation-free:
// Put copies into the current log chunk in place, so the only allocations are
// the occasional chunk turnover — well under one per op.
func TestAllocsPut(t *testing.T) {
	s := allocsStore(t)
	se := s.NewSession(simclock.New(0)).(*Session)
	key := []byte("alloc-put-key")
	val := []byte("alloc-put-value-0123456789")
	if n := testing.AllocsPerRun(500, func() {
		if err := se.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}); n >= 1 {
		t.Fatalf("Put allocates %v per op, want amortized < 1", n)
	}
}

// TestAllocsPutBatch does the same for the batched write path the server's
// shard-affine SET dispatch uses.
func TestAllocsPutBatch(t *testing.T) {
	s := allocsStore(t)
	se := s.NewSession(simclock.New(0)).(*Session)
	keys := [][]byte{[]byte("pb-a"), []byte("pb-b"), []byte("pb-c"), []byte("pb-d")}
	vals := [][]byte{[]byte("v-a"), []byte("v-b"), []byte("v-c"), []byte("v-d")}
	// Warm the per-session scratch (hash/done slices) once.
	if err := se.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := se.PutBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
	}); n >= 1 {
		t.Fatalf("PutBatch(4) allocates %v per call, want amortized < 1", n)
	}
}

// TestAllocsDurableWindow is the engine's share of a durable wire ack — the
// server's PutBatch of a pipelined window followed by the handler's own Flush
// — on both backends, with the maintenance pool on so Flush walks its dirty
// shard list. Steady state allocates nothing: the window's hash/done scratch,
// the dirty list and the log reservation are all reused, and a reservation
// inside a mapped segment touches no metadata.
func TestAllocsDurableWindow(t *testing.T) {
	cfg := TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 4096 // no freeze, so no background job allocates meanwhile
	cfg.MaintenanceWorkers = 2
	backends := map[string]func() (*Store, error){
		"sim": func() (*Store, error) { return Open(cfg) },
		"file": func() (*Store, error) {
			s, _, err := OpenFile(cfg, t.TempDir())
			return s, err
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			s, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			se := s.NewSession(simclock.New(0)).(*Session)
			keys, vals := make([][]byte, 16), make([][]byte, 16)
			for i := range keys {
				keys[i] = []byte{'w', 'k', byte('a' + i)}
				vals[i] = []byte("window-value")
			}
			window := func() {
				if err := se.PutBatch(keys, vals); err != nil {
					t.Fatal(err)
				}
				if err := se.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			window() // warm the scratch, map the first segment
			window() // first line-sized reservation
			if n := testing.AllocsPerRun(100, window); n != 0 {
				t.Fatalf("PutBatch(16)+Flush allocates %v per window, want 0", n)
			}
		})
	}
}
