package server

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"chameleondb/internal/resp"
)

// TestAllocsWirePipelined is the wire half of the allocation-free contract
// (the engine half is core's TestAllocsGetInto/Put/PutBatch): a depth-16
// pipelined window of GET hits, then of durable SETs, over loopback costs
// the serving stack — RESP decode, dispatch, engine call, reply encode,
// commit — no steady-state heap allocation. The client loop writes one
// pre-encoded request and reads into one buffer, so it allocates nothing,
// and the counters are the process-wide MemStats because the serving
// goroutines do the work; for the same reason this test must not run beside
// another (no t.Parallel here or anywhere in this package).
func TestAllocsWirePipelined(t *testing.T) {
	const (
		depth   = 16
		windows = 2000 // 32k ops a case; the SET case appends ~2 MB of log
		ceiling = 0.1  // allocs/op; measured 0.000 (GET) and 0.001 (SET)
	)
	_, addr := startServer(t, nil, Config{})
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Minute))

	key, val := []byte("allocs-wire-key"), []byte("8bytes!!")
	window := func(args ...[]byte) []byte {
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		for i := 0; i < depth; i++ {
			w.Command(args...)
		}
		w.Flush()
		return buf.Bytes()
	}
	cases := []struct {
		name       string
		req, reply []byte
	}{
		// SET first: it also leaves the key behind for the GET hits.
		{"SET", window([]byte("SET"), key, val), bytes.Repeat([]byte("+OK\r\n"), depth)},
		{"GET hit", window([]byte("GET"), key), bytes.Repeat([]byte("$8\r\n8bytes!!\r\n"), depth)},
	}
	for _, tc := range cases {
		got := make([]byte, len(tc.reply))
		roundTrip := func() {
			if _, err := nc.Write(tc.req); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if _, err := io.ReadFull(nc, got); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for i := 0; i < 64; i++ { // warm scratch buffers and first-use paths
			roundTrip()
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < windows; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&m1)
		if !bytes.Equal(got, tc.reply) {
			t.Fatalf("%s: reply %q, want %q", tc.name, got, tc.reply)
		}
		perOp := float64(m1.Mallocs-m0.Mallocs) / (windows * depth)
		t.Logf("%s: %.3f allocs/op over %d ops", tc.name, perOp, windows*depth)
		if perOp > ceiling {
			t.Errorf("%s: %.3f allocs/op on the wire, want <= %.1f", tc.name, perOp, ceiling)
		}
	}
}
