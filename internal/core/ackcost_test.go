package core_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/pmem"
	"chameleondb/internal/resp"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
)

// countingMedium is a MemMedium that counts what a durable acknowledgement is
// made of: barriers (an fdatasync per dirty file each on the file backend) and
// host-metadata records (a manifest fdatasync each). It keeps the durable
// image, so a store on it crashes and recovers like a simulated one.
type countingMedium struct {
	*pmem.MemMedium
	barriers   atomic.Int64
	metaWrites atomic.Int64
	failing    atomic.Bool // barriers return an I/O error
}

func newCountingMedium(cfg core.Config) *countingMedium {
	return &countingMedium{MemMedium: pmem.NewMemMedium(cfg.ArenaBytes)}
}

func (m *countingMedium) Sync() error {
	if m.failing.Load() {
		return errors.New("injected EIO")
	}
	m.barriers.Add(1)
	return nil
}
func (m *countingMedium) WriteMeta(payload []byte, tear int64) error {
	m.metaWrites.Add(1)
	return nil
}

// serveOnMedium boots a store on a counting medium and a server over it, with
// the server's shipped defaults (durable acks) unless asyncAck is set.
func serveOnMedium(t *testing.T, asyncAck bool) (*core.Store, *countingMedium, *server.Server, string) {
	t.Helper()
	cfg := core.TestConfig()
	med := newCountingMedium(cfg)
	st, err := core.OpenOnMedium(cfg, med)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := server.New(st, server.Config{Addr: "127.0.0.1:0", AsyncAck: asyncAck})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return st, med, srv, srv.Addr().String()
}

// TestDurableAckCostsOneSync is the count gate on the ack path: N depth-1
// durable SETs over the wire are N barriers — no commit round, no
// second persist — the host-metadata record is rewritten only when the log
// maps a segment, and an ack consumes lines of log, not a 4 KiB chunk. The
// keys cycle through a handful so no MemTable fills: every persist counted is
// the log's.
func TestDurableAckCostsOneSync(t *testing.T) {
	st, med, _, addr := serveOnMedium(t, false)
	c, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Minute))
	set := func(i int) {
		t.Helper()
		if err := c.Set(fmt.Appendf(nil, "ack-%02d", i%16), fmt.Appendf(nil, "v%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	set(0) // maps the first log segment
	segments := func() int64 {
		_, _, segs := st.Log().SegmentSnapshot()
		return int64(len(segs))
	}
	syncs0, metas0, segs0, live0 := med.barriers.Load(), med.metaWrites.Load(), segments(), st.Log().LiveBytes()

	const n = 4096
	for i := 1; i <= n; i++ {
		set(i)
	}
	if got := med.barriers.Load() - syncs0; got != n {
		t.Errorf("%d depth-1 durable SETs made %d barriers, want one each", n, got)
	}
	if metas, mapped := med.metaWrites.Load()-metas0, segments()-segs0; metas != mapped {
		t.Errorf("%d host-metadata records for %d newly mapped log segments", metas, mapped)
	}
	if grew := st.Log().LiveBytes() - live0; grew > n*1024 {
		t.Errorf("log grew %d B over %d acks (%d B each), want <= 1 KiB each", grew, n, grew/n)
	}
}

// TestVaryingWindowsCostOneSyncEach is the count gate for windows that change
// size: a session alternating small and large PutBatch+Flush windows pays one
// barrier per window once its reservation has seen the large size —
// the reservation after a flush covers the largest of the last four windows,
// so a large window following a small one is not cut in two. The bound on the
// cold start is the ring: a size never seen in the last four windows may cost
// one extra sync and a 4 KiB chunk, once.
func TestVaryingWindowsCostOneSyncEach(t *testing.T) {
	cfg := core.TestConfig()
	med := newCountingMedium(cfg)
	st, err := core.OpenOnMedium(cfg, med)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	se := st.NewSession(simclock.New(0)).(*core.Session)
	keys, vals := make([][]byte, 16), make([][]byte, 16)
	for i := range keys {
		keys[i], vals[i] = fmt.Appendf(nil, "win-%02d", i), fmt.Appendf(nil, "v%06d", i)
	}
	sizes := []int{1, 16, 2, 16, 1, 8, 16, 4}
	window := func(i int) {
		t.Helper()
		n := sizes[i%len(sizes)]
		if err := se.PutBatch(keys[:n], vals[:n]); err != nil {
			t.Fatal(err)
		}
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(sizes); i++ { // cold start: every size seen once
		window(i)
	}
	syncs0, live0 := med.barriers.Load(), st.Log().LiveBytes()
	const n = 2048
	for i := 0; i < n; i++ {
		window(i)
	}
	if got := med.barriers.Load() - syncs0; got != n {
		t.Errorf("%d windows of sizes %v made %d barriers, want one each", n, sizes, got)
	}
	if grew := st.Log().LiveBytes() - live0; grew > n*1024 {
		t.Errorf("log grew %d B over %d windows (%d B each), want <= 1 KiB each", grew, n, grew/n)
	}
}

// TestSealedChunksCostNoBarrier is the count gate on the batch path: a session
// that appends sixteen chunks' worth of entries without flushing seals a chunk
// every ~100 puts, and each seal only writes the chunk back — no
// acknowledgement waits on it — so the session issues no barrier until its
// Flush, and exactly one there. The keys cycle through a handful so no
// MemTable fills and no index checkpoint barriers in between.
func TestSealedChunksCostNoBarrier(t *testing.T) {
	cfg := core.TestConfig()
	med := newCountingMedium(cfg)
	st, err := core.OpenOnMedium(cfg, med)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	se := st.NewSession(simclock.New(0)).(*core.Session)
	barriers0, bytes0 := med.barriers.Load(), st.Log().BytesAppended()
	for i := 0; st.Log().BytesAppended()-bytes0 < 16*4096; i++ {
		if err := se.Put(fmt.Appendf(nil, "seal-%02d", i%16), fmt.Appendf(nil, "v%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := med.barriers.Load() - barriers0; got != 0 {
		t.Errorf("sixteen sealed chunks issued %d barriers before the Flush, want 0", got)
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := med.barriers.Load() - barriers0; got != 1 {
		t.Errorf("the Flush after sixteen sealed chunks brought the barriers to %d, want 1", got)
	}
}

// TestPipelinedConnsDurableAckOrClose: 32 connections pipeline SET windows
// while the server is shut down under them. A connection either gets its
// window's acks or is closed; every ack it did get must survive a power cut
// taken right after the drain — with no shared committer, that is each
// handler's own flush doing its job — and each acked window cost at least
// one barrier.
func TestPipelinedConnsDurableAckOrClose(t *testing.T) {
	st, med, srv, addr := serveOnMedium(t, false)
	const (
		conns  = 32
		window = 16
	)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		acked   = make(map[string]int) // key -> round of its newest acked value
		windows atomic.Int64
	)
	syncs0 := med.barriers.Load()
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := resp.Dial(addr, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(time.Minute))
			for round := 0; ; round++ {
				keys := make([]string, window)
				for i := range keys {
					keys[i] = fmt.Sprintf("c%02d-%d", id, (round*window+i)%64)
					c.SendStrings("SET", keys[i], strconv.Itoa(round))
				}
				if err := c.Flush(); err != nil {
					return // closed by the drain
				}
				for i := range keys {
					rep, err := c.Receive()
					if err != nil {
						return // closed by the drain: the rest is unacknowledged
					}
					if err := rep.Err(); err != nil {
						t.Errorf("conn %d: %v", id, err)
						return
					}
					mu.Lock()
					acked[keys[i]] = round
					mu.Unlock()
				}
				windows.Add(1)
			}
		}(id)
	}
	for windows.Load() < 4*conns {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	wg.Wait()
	if got, min := med.barriers.Load()-syncs0, windows.Load(); got < min {
		t.Errorf("%d acked windows over %d barriers", min, got)
	}

	st.Crash()
	if err := st.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se := st.NewSession(simclock.New(0))
	for k, want := range acked {
		got, ok, err := se.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("acked key %s after power cut: ok=%v err=%v", k, ok, err)
		}
		// A later window's unacknowledged write of the same key may have
		// landed; an older value may not have come back.
		if round, err := strconv.Atoi(string(got)); err != nil || round < want {
			t.Fatalf("acked key %s = %q after power cut, acked round %d", k, got, want)
		}
	}
}

// TestFailedSyncIsNotAcknowledged: when the one sync an ack stands on fails,
// the session's Flush says so and the connection gets an error and a close,
// never the +OK.
func TestFailedSyncIsNotAcknowledged(t *testing.T) {
	_, med, _, addr := serveOnMedium(t, false)
	c, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	if err := c.Set([]byte("k"), []byte("durable")); err != nil {
		t.Fatal(err)
	}
	med.failing.Store(true)
	rep, err := c.DoStrings("SET", "k", "lost")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeError || !strings.Contains(rep.Text(), "commit failed") {
		t.Fatalf("SET over a failing medium = %+v, want -ERR commit failed", rep)
	}
	if _, err := c.DoStrings("PING"); err == nil {
		t.Fatal("connection stayed open after a failed commit")
	}
}

// TestFlushAllOverFailedSyncIsNotAcknowledged: FLUSHALL is the store-wide
// durability barrier, so a write buffered in another connection's appender
// (acknowledged early under AsyncAck) that fails to persist inside the
// barrier must turn the reply into an error, never +OK.
func TestFlushAllOverFailedSyncIsNotAcknowledged(t *testing.T) {
	_, med, srv, addr := serveOnMedium(t, true)
	dial := func() *resp.Client {
		t.Helper()
		c, err := resp.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(30 * time.Second))
		return c
	}
	a, b := dial(), dial()
	if err := a.Set([]byte("k"), []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	med.failing.Store(true)
	errs0 := srv.Metrics().StoreErrors.Load()
	rep, err := b.DoStrings("FLUSHALL")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeError {
		t.Fatalf("FLUSHALL over a failing medium = %+v, want -ERR", rep)
	}
	if got := srv.Metrics().StoreErrors.Load() - errs0; got != 1 {
		t.Errorf("StoreErrors moved by %d, want 1", got)
	}
}
