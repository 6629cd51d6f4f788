package repl

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/simclock"
)

func openStore(t *testing.T, cfg core.Config) *core.Store {
	t.Helper()
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func fastConfig() Config {
	return Config{
		Heartbeat:      2 * time.Millisecond,
		ReconnectDelay: 5 * time.Millisecond,
		DialTimeout:    time.Second,
	}
}

func startPrimary(t *testing.T, st *core.Store, cfg Config) *Node {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	n, err := Start(st, cfg)
	if err != nil {
		t.Fatalf("start primary: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func startReplica(t *testing.T, st *core.Store, primaryAddr, id string, cfg Config) *Node {
	t.Helper()
	cfg.PrimaryAddr = primaryAddr
	cfg.ID = id
	n, err := Start(st, cfg)
	if err != nil {
		t.Fatalf("start replica: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func session(t *testing.T, st *core.Store) *core.Session {
	t.Helper()
	se, ok := st.NewSession(simclock.New(0)).(*core.Session)
	if !ok {
		t.Fatal("session type")
	}
	t.Cleanup(func() { se.Release() })
	return se
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dump scans the full store into a map.
func dump(t *testing.T, se *core.Session) map[string]string {
	t.Helper()
	out := make(map[string]string)
	cursor := uint64(0)
	for {
		kvs, next, err := se.Scan(cursor, 64)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		for _, kv := range kvs {
			out[string(kv.Key)] = string(kv.Value)
		}
		if next == 0 {
			return out
		}
		cursor = next
	}
}

func assertParity(t *testing.T, pse, rse *core.Session) {
	t.Helper()
	want, got := dump(t, pse), dump(t, rse)
	if len(want) != len(got) {
		t.Fatalf("replica holds %d keys, primary %d", len(got), len(want))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("replica missing key %q", k)
		}
		if gv != v {
			t.Fatalf("replica key %q = %q, want %q", k, gv, v)
		}
		// Point reads agree with the scan.
		rv, ok, err := rse.Get([]byte(k))
		if err != nil || !ok || string(rv) != v {
			t.Fatalf("replica Get(%q) = %q,%v,%v want %q", k, rv, ok, err, v)
		}
	}
}

// TestBootstrapCatchUpAndParity covers the main e2e: a replica bootstraps
// from a live primary with pre-existing state (including deletions), reaches
// parity, and then follows steady-state writes shipped off the durable hook.
func TestBootstrapCatchUpAndParity(t *testing.T) {
	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	pse := session(t, pst)

	for i := 0; i < 200; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := pse.Delete([]byte(fmt.Sprintf("key-%04d", i*2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pse.Flush(); err != nil {
		t.Fatal(err)
	}

	rst := openStore(t, core.TestConfig())
	rn := startReplica(t, rst, pn.Addr(), "r1", fastConfig())
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT 1 = %d, %v", got, err)
	}
	rse := session(t, rst)
	assertParity(t, pse, rse)
	for i := 0; i < 50; i++ {
		if _, ok, _ := rse.Get([]byte(fmt.Sprintf("key-%04d", i*2))); ok {
			t.Fatalf("replica resurrected deleted key-%04d", i*2)
		}
	}

	// Steady state: new writes and deletes flow without a reconnect.
	for i := 0; i < 60; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("live-%03d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pse.Delete([]byte("key-0001")); err != nil {
		t.Fatal(err)
	}
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT 1 = %d, %v", got, err)
	}
	assertParity(t, pse, rse)
	if s := rn.Status(); !s.LinkUp || s.Role != RoleReplica {
		t.Fatalf("replica status = %+v", s)
	}
	if pn.ConnectedReplicas() != 1 {
		t.Fatalf("connected replicas = %d", pn.ConnectedReplicas())
	}
}

// TestUnflushedWritesReachReplica: a primary writer that never flushes (an
// -async-ack connection, an embedded session between flushes) issues no
// barrier of its own, so the ship frontier must be moved for it: its writes —
// sealed chunks and the open one alike — reach a connected replica within a
// few heartbeats, with no WAIT, FLUSHALL or disconnect to push them.
func TestUnflushedWritesReachReplica(t *testing.T) {
	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	rst := openStore(t, core.TestConfig())
	startReplica(t, rst, pn.Addr(), "r1", fastConfig())
	waitFor(t, "replica connected", func() bool { return pn.ConnectedReplicas() == 1 })

	pse := session(t, pst)
	const n = 300 // several sealed chunks and an open one
	for i := 0; i < n; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("unflushed-%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rse := session(t, rst)
	waitFor(t, "unflushed writes on the replica", func() bool {
		for i := n - 1; i >= 0; i-- {
			if _, ok, err := rse.Get([]byte(fmt.Sprintf("unflushed-%03d", i))); err != nil || !ok {
				return false
			}
		}
		return true
	})
}

// TestWaitSemantics pins down the WAIT contract: zero without replicas, the
// ack count with them, and a bounded wait for unreachable counts.
func TestWaitSemantics(t *testing.T) {
	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	pse := session(t, pst)
	if err := pse.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	if got, err := pn.Wait(pse, 1, 50*time.Millisecond); err != nil || got != 0 {
		t.Fatalf("WAIT with no replicas = %d, %v", got, err)
	}

	rst := openStore(t, core.TestConfig())
	startReplica(t, rst, pn.Addr(), "r1", fastConfig())
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT 1 = %d, %v", got, err)
	}
	start := time.Now()
	if got, err := pn.Wait(pse, 2, 100*time.Millisecond); err != nil || got != 1 {
		t.Fatalf("WAIT 2 = %d, %v", got, err)
	}
	if time.Since(start) < 90*time.Millisecond {
		t.Fatal("WAIT 2 returned before its timeout")
	}
}

// TestReplicaReadOnlyAndPromote checks the -READONLY gate and that promotion
// opens writes and bumps the replication epoch.
func TestReplicaReadOnlyAndPromote(t *testing.T) {
	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	pse := session(t, pst)
	if err := pse.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	rst := openStore(t, core.TestConfig())
	rn := startReplica(t, rst, pn.Addr(), "r1", fastConfig())
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT = %d, %v", got, err)
	}

	rse := session(t, rst)
	if err := rse.Put([]byte("x"), []byte("y")); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica Put = %v, want ErrReadOnly", err)
	}
	if err := rse.Delete([]byte("k")); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica Delete = %v, want ErrReadOnly", err)
	}
	if v, ok, err := rse.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("replica Get = %q,%v,%v", v, ok, err)
	}

	idBefore, epochBefore, _ := rst.ReplState()
	if err := rn.Promote(); err != nil {
		t.Fatal(err)
	}
	if rn.Role() != RolePrimary {
		t.Fatalf("role after promote = %s", rn.Role())
	}
	id, epoch, _ := rst.ReplState()
	if epoch != epochBefore+1 {
		t.Fatalf("epoch after promote = %d, want %d", epoch, epochBefore+1)
	}
	if id == idBefore || id == "" {
		t.Fatalf("repl ID after promote = %q, want a fresh lineage (was %q)", id, idBefore)
	}
	if err := rse.Put([]byte("x"), []byte("y")); err != nil {
		t.Fatalf("promoted Put = %v", err)
	}
}

// TestFailoverNoResurrection is the acceptance failover: the primary dies
// holding durable writes it never shipped; the replica is promoted; the old
// primary rejoins as a replica and must full-resync — every WAIT-acked write
// survives on the promoted node, and the old primary's unshipped writes are
// not resurrected.
func TestFailoverNoResurrection(t *testing.T) {
	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	pse := session(t, pst)

	for i := 0; i < 100; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("acked-%03d", i)), []byte("yes")); err != nil {
			t.Fatal(err)
		}
	}
	rst := openStore(t, core.TestConfig())
	rn := startReplica(t, rst, pn.Addr(), "r1", fastConfig())
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT = %d, %v", got, err)
	}

	// Partition the replica away, then write on the primary: durable locally,
	// never shipped, never acked.
	rn.Close()
	for i := 0; i < 40; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("unacked-%03d", i)), []byte("no")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pse.Flush(); err != nil {
		t.Fatal(err)
	}

	// Primary dies; stop its node first so no shipper touches the store
	// mid-wipe, then crash the store.
	pn.Close()
	pse.Release()
	pst.Crash()

	// Promote the survivor and serve writes from it.
	newPrimary := startPrimary(t, rst, fastConfig())
	if err := newPrimary.Promote(); err != nil {
		t.Fatal(err)
	}
	nse := session(t, rst)
	if err := nse.Put([]byte("post-failover"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := nse.Flush(); err != nil {
		t.Fatal(err)
	}

	// Old primary recovers and rejoins as a replica. Its epoch predates the
	// promotion, so the handshake demands a full resync; the ResetStore hook
	// stands in for wiping the data directory.
	if err := pst.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.PrimaryAddr = newPrimary.Addr()
	cfg.ID = "old-primary"
	var reset bool
	cfg.ResetStore = func() (*core.Store, error) {
		reset = true
		fresh, err := core.Open(core.TestConfig())
		if err != nil {
			return nil, err
		}
		pst.Close()
		return fresh, nil
	}
	on, err := Start(pst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { on.Close() })
	if !reset {
		t.Fatal("old primary rejoined without a full reset")
	}
	ost := on.Store()
	if ost == pst {
		t.Fatal("node still fronts the diverged store")
	}
	t.Cleanup(func() { ost.Close() })

	if got, err := newPrimary.Wait(nse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT on new primary = %d, %v", got, err)
	}
	ose := session(t, ost)
	assertParity(t, nse, ose)
	for i := 0; i < 40; i++ {
		if _, ok, _ := ose.Get([]byte(fmt.Sprintf("unacked-%03d", i))); ok {
			t.Fatalf("unacked-%03d resurrected after full resync", i)
		}
	}
	if _, ok, _ := ose.Get([]byte("post-failover")); !ok {
		t.Fatal("post-failover write missing on rejoined replica")
	}
}

// lazyReplica handshakes like a replica but never acks, pinning the
// primary's GC hold at its start LSN.
type lazyReplica struct {
	conn net.Conn
	acc  accept
}

func dialLazy(t *testing.T, addr, id string) *lazyReplica {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, encodeHello(hello{Epoch: 0, Resume: 0, ID: id})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameAccept {
		t.Fatalf("accept: type %d, %v", typ, err)
	}
	acc, err := decodeAccept(payload)
	if err != nil {
		t.Fatal(err)
	}
	return &lazyReplica{conn: conn, acc: acc}
}

// TestGCHoldForLaggingReplica asserts the log-GC coordination: while a
// replica that has acked nothing is connected, CompactLog cannot advance the
// log base past its start LSN; after it disconnects and HoldTimeout elapses,
// the hold is released and compaction reclaims the garbage.
func TestGCHoldForLaggingReplica(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LogBytes = 1 << 20 // small segments so churn spans several
	st := openStore(t, cfg)
	rcfg := fastConfig()
	rcfg.HoldTimeout = 150 * time.Millisecond
	pn := startPrimary(t, st, rcfg)
	se := session(t, st)
	clk := simclock.New(0)

	lazy := dialLazy(t, pn.Addr(), "lazy")
	defer lazy.conn.Close()
	log := st.Log()
	base0 := log.Base()
	if lazy.acc.Start != base0 {
		t.Fatalf("lazy start = %d, want base %d", lazy.acc.Start, base0)
	}
	waitFor(t, "lazy replica registered", func() bool { return pn.ConnectedReplicas() == 1 })

	// Churn: overwrite the same keys so almost everything is garbage.
	val := make([]byte, 400)
	for round := 0; round < 8; round++ {
		for i := 0; i < 150; i++ {
			if err := se.Put([]byte(fmt.Sprintf("churn-%03d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.CompactLog(clk, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := log.Base(); got != base0 {
		t.Fatalf("GC advanced base to %d past a connected replica's hold %d", got, base0)
	}
	if floor := log.GCFloor(); floor != base0 {
		t.Fatalf("GCFloor = %d, want %d", floor, base0)
	}

	// Disconnect. The hold must persist for HoldTimeout, then release.
	lazy.conn.Close()
	waitFor(t, "hold release after timeout", func() bool { return log.GCFloor() > base0 })
	if _, err := st.CompactLog(clk, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := log.Base(); got <= base0 {
		t.Fatalf("GC did not reclaim after hold release: base %d", got)
	}
}

// TestReconnectResumesIncrementally verifies that a replica that loses its
// connection resumes from its durable watermark (no full resync) while the
// primary retained its log, and catches up with the writes it missed.
func TestReconnectResumesIncrementally(t *testing.T) {
	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	pse := session(t, pst)
	for i := 0; i < 50; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("pre-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	rst := openStore(t, core.TestConfig())
	rn := startReplica(t, rst, pn.Addr(), "r1", fastConfig())
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT = %d, %v", got, err)
	}
	syncsBefore := pn.c.fullSyncs.Load()

	// Sever the replica's connection out from under it; it should redial
	// and resume from its durable watermark.
	rn.mu.Lock()
	l := rn.link
	rn.mu.Unlock()
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	conn.Close()

	for i := 0; i < 50; i++ {
		if err := pse.Put([]byte(fmt.Sprintf("post-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT after reconnect = %d, %v", got, err)
	}
	if got := pn.c.fullSyncs.Load(); got != syncsBefore {
		t.Fatalf("reconnect triggered %d full resyncs", got-syncsBefore)
	}
	rse := session(t, rst)
	assertParity(t, pse, rse)
}

// TestRetargetUnrelatedPrimaryParks is the lineage regression: two unrelated
// primaries are both in their first lifetime, so their bare epoch counters
// collide, and the replica's resume LSN lies inside the second primary's
// retained log. Retargeting the replica must not pass the incremental-resume
// check — the random lineage ID differs — so the primary demands a full
// resync and the replica, holding diverged state with no reset hook, parks
// with NeedsReset instead of silently applying an unrelated LSN stream onto
// its existing data.
func TestRetargetUnrelatedPrimaryParks(t *testing.T) {
	pstA := openStore(t, core.TestConfig())
	pnA := startPrimary(t, pstA, fastConfig())
	pseA := session(t, pstA)
	for i := 0; i < 50; i++ {
		if err := pseA.Put([]byte(fmt.Sprintf("a-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rst := openStore(t, core.TestConfig())
	rn := startReplica(t, rst, pnA.Addr(), "r1", fastConfig())
	if got, err := pnA.Wait(pseA, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT = %d, %v", got, err)
	}

	pstB := openStore(t, core.TestConfig())
	pnB := startPrimary(t, pstB, fastConfig())
	pseB := session(t, pstB)
	for i := 0; i < 200; i++ {
		if err := pseB.Put([]byte(fmt.Sprintf("b-%03d", i)), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pseB.Flush(); err != nil {
		t.Fatal(err)
	}

	// The trap must be armed for the test to mean anything: equal epoch
	// counters and a resume LSN inside B's retained log, so only the lineage
	// ID tells the histories apart.
	_, ea, resume := rst.ReplState()
	_, eb, _ := pstB.ReplState()
	if ea != eb {
		t.Fatalf("epochs differ (%d vs %d); the scenario needs colliding counters", ea, eb)
	}
	if logB := pstB.Log(); resume < logB.Base() || resume > logB.Tail() {
		t.Fatalf("resume %d outside B's log [%d, %d]; the scenario needs an in-range watermark",
			resume, logB.Base(), logB.Tail())
	}

	if err := rn.ReplicaOf(pnB.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "needs-reset latch", func() bool { return rn.Status().NeedsReset })

	// Nothing from B leaked into the replica, and A's replicated data is
	// intact.
	rse := session(t, rst)
	got := dump(t, rse)
	for k := range got {
		if strings.HasPrefix(k, "b-") {
			t.Fatalf("replica applied unrelated key %q", k)
		}
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("a-%03d", i)
		if got[k] != "v" {
			t.Fatalf("replica lost key %q (have %q)", k, got[k])
		}
	}
}

// TestExportRangeProgress pins exportRange's no-livelock contract: however
// small the byte budget, every frame carries at least one record and advances
// the cursor, and the payload never exceeds MaxFramePayload.
func TestExportRangeProgress(t *testing.T) {
	st := openStore(t, core.TestConfig())
	se := session(t, st)
	for i := 0; i < 20; i++ {
		if err := se.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	log := st.Log()
	clk := simclock.New(0)
	cursor, wm := log.Base(), log.MinNextLSN()
	total := 0
	for cursor < wm {
		payload, next, count, err := exportRange(log, clk, cursor, wm, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("payload %d bytes exceeds MaxFramePayload", len(payload))
		}
		if next <= cursor {
			t.Fatalf("cursor stuck at %d (next %d)", cursor, next)
		}
		if count == 0 && next < wm {
			t.Fatalf("empty frame at cursor %d did not exhaust the range", cursor)
		}
		total += count
		cursor = next
	}
	if total != 20 {
		t.Fatalf("exported %d records, want 20", total)
	}
}
