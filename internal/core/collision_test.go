package core

import (
	"testing"

	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// collideKeys overrides the store's hash seam so the named keys all map to
// one engineered hash (every other key keeps the real hash). The hash's top
// bits pick a fixed shard; log entries persist the engineered value, so
// recovery replays stay self-consistent.
const collisionHash = uint64(0xC011_1DE5_0000_0001)

func collideKeys(s *Store, keys ...string) {
	forced := make(map[string]bool, len(keys))
	for _, k := range keys {
		forced[k] = true
	}
	s.hashFn = func(k []byte) uint64 {
		if forced[string(k)] {
			return collisionHash
		}
		return xhash.Sum64(k)
	}
}

// freezeShard manually rotates the shard's MemTable into the frozen list —
// the state the async pipeline passes through between a put-side freeze and
// the background flush — without needing a worker pool.
func freezeShard(s *Store, h uint64) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	sh.freezeMem()
	sh.mu.Unlock()
}

// checkCollisionPair asserts both colliding keys resolve to their own values
// through Get and through a full scan, and that the fallback actually fired.
func checkCollisionPair(t *testing.T, s *Store, se *Session, k1, v1, k2, v2 string) {
	t.Helper()
	before := s.stats.HashMismatches.Load()
	if got, ok, err := se.Get([]byte(k1)); err != nil || !ok || string(got) != v1 {
		t.Fatalf("Get(%s) = %q, %v, %v; want %q", k1, got, ok, err, v1)
	}
	if got, ok, err := se.Get([]byte(k2)); err != nil || !ok || string(got) != v2 {
		t.Fatalf("Get(%s) = %q, %v, %v; want %q", k2, got, ok, err, v2)
	}
	if s.stats.HashMismatches.Load() == before {
		t.Fatal("colliding gets resolved without a single full-key mismatch — collision not engineered")
	}
	scan := scanAll(t, se)
	if scan[k1] != v1 || scan[k2] != v2 {
		t.Fatalf("scan sees %q=%q, %q=%q; want %q, %q", k1, scan[k1], k2, scan[k2], v1, v2)
	}
}

// TestCollisionMemVsFrozen: the older key's slot sits in a frozen MemTable
// beneath a same-hash slot in the live MemTable.
func TestCollisionMemVsFrozen(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	se.Put([]byte("col-a"), []byte("va"))
	freezeShard(s, collisionHash)
	se.Put([]byte("col-b"), []byte("vb"))
	checkCollisionPair(t, s, se, "col-a", "va", "col-b", "vb")

	// A colliding tombstone above: deleting col-b must not hide col-a.
	se.Delete([]byte("col-b"))
	if _, ok, err := se.Get([]byte("col-b")); ok || err != nil {
		t.Fatalf("deleted col-b still visible (%v, %v)", ok, err)
	}
	if got, ok, err := se.Get([]byte("col-a")); err != nil || !ok || string(got) != "va" {
		t.Fatalf("col-a lost behind colliding tombstone: %q, %v, %v", got, ok, err)
	}
	scan := scanAll(t, se)
	if _, dead := scan["col-b"]; dead {
		t.Fatal("scan resurrected deleted col-b")
	}
	if scan["col-a"] != "va" {
		t.Fatalf("scan lost col-a behind colliding tombstone: %v", scan)
	}
}

// TestFrozenNewestFirst: two frozen MemTables holding versions of one key
// resolve to the newer one on the get path and in a scan — frozen tables sit
// in version order newest first.
func TestFrozenNewestFirst(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0)).(*Session)
	k := []byte("frozen-k")
	h := s.hashFn(k)
	for _, v := range []string{"v1", "v2"} {
		if err := se.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		freezeShard(s, h)
	}
	if n := s.shardFor(h).view.Load().frozen; n != 2 {
		t.Fatalf("%d frozen MemTables, want 2", n)
	}
	if got, ok, err := se.Get(k); err != nil || !ok || string(got) != "v2" {
		t.Fatalf("Get = %q, %v, %v; want \"v2\"", got, ok, err)
	}
	if got := scanAll(t, se)[string(k)]; got != "v2" {
		t.Fatalf("scan = %q, want \"v2\"", got)
	}
}

// TestCollisionMemVsABI: the older key reaches the ABI via FlushAll's mirror,
// the newer one sits in the MemTable.
func TestCollisionMemVsABI(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	c := simclock.New(0)
	se.Put([]byte("col-a"), []byte("va"))
	if err := s.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	se.Put([]byte("col-b"), []byte("vb"))
	checkCollisionPair(t, s, se, "col-a", "va", "col-b", "vb")
}

// TestCollisionMemVsDumped: the older key's slot lives in a dumped ABI table.
func TestCollisionMemVsDumped(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	c := simclock.New(0)
	se.Put([]byte("col-a"), []byte("va"))
	if err := s.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	if err := s.DumpABIs(c); err != nil {
		t.Fatal(err)
	}
	se.Put([]byte("col-b"), []byte("vb"))
	checkCollisionPair(t, s, se, "col-a", "va", "col-b", "vb")
}

// TestCollisionMemVsLevelRun: with the ABI disabled the read path probes the
// upper-level runs, so the fallback must work against persisted L0 tables.
func TestCollisionMemVsLevelRun(t *testing.T) {
	s := openTest(t, func(c *Config) { c.DisableABI = true })
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	c := simclock.New(0)
	se.Put([]byte("col-a"), []byte("va"))
	if err := s.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	se.Put([]byte("col-b"), []byte("vb"))
	checkCollisionPair(t, s, se, "col-a", "va", "col-b", "vb")
}

// TestCollisionMemVsLastLevel: the older key is compacted all the way into
// the last-level run before the collider arrives.
func TestCollisionMemVsLastLevel(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	c := simclock.New(0)
	se.Put([]byte("col-a"), []byte("va"))
	if err := s.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	if err := s.DumpABIs(c); err != nil {
		t.Fatal(err)
	}
	sh := s.shardFor(collisionHash)
	sh.mu.Lock()
	err := sh.lastLevelCompaction(c)
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if sh.last == nil {
		t.Fatal("last-level compaction left no last-level run")
	}
	se.Put([]byte("col-b"), []byte("vb"))
	checkCollisionPair(t, s, se, "col-a", "va", "col-b", "vb")
}

// TestCollisionThreeDeep stacks three colliding keys across three tiers and
// checks the skip loop walks past two mismatches.
func TestCollisionThreeDeep(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b", "col-c")
	se := s.NewSession(simclock.New(0)).(*Session)
	c := simclock.New(0)
	se.Put([]byte("col-a"), []byte("va"))
	if err := s.FlushAll(c); err != nil { // col-a → ABI
		t.Fatal(err)
	}
	se.Put([]byte("col-b"), []byte("vb"))
	freezeShard(s, collisionHash) // col-b → frozen
	se.Put([]byte("col-c"), []byte("vc"))
	for _, kv := range [][2]string{{"col-a", "va"}, {"col-b", "vb"}, {"col-c", "vc"}} {
		if got, ok, err := se.Get([]byte(kv[0])); err != nil || !ok || string(got) != kv[1] {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", kv[0], got, ok, err, kv[1])
		}
	}
	scan := scanAll(t, se)
	for _, kv := range [][2]string{{"col-a", "va"}, {"col-b", "vb"}, {"col-c", "vc"}} {
		if scan[kv[0]] != kv[1] {
			t.Fatalf("scan[%s] = %q, want %q", kv[0], scan[kv[0]], kv[1])
		}
	}
}

// TestCollisionSurvivesRecovery: log entries persist the engineered hash, so
// a crash/recovery replay rebuilds the same colliding topology.
func TestCollisionSurvivesRecovery(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	c := simclock.New(0)
	se.Put([]byte("col-a"), []byte("va"))
	if err := s.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	se.Put([]byte("col-b"), []byte("vb"))
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0)).(*Session)
	checkCollisionPair(t, s, se2, "col-a", "va", "col-b", "vb")
}

// TestCollisionDeleteIfPresentExact: the locked probe inside DeleteIfPresent
// must compare full keys too — deleting one collider reports existed only for
// the key actually present.
func TestCollisionDeleteIfPresentExact(t *testing.T) {
	s := openTest(t)
	collideKeys(s, "col-a", "col-b")
	se := s.NewSession(simclock.New(0)).(*Session)
	se.Put([]byte("col-a"), []byte("va"))
	// col-b shares the hash but was never written: must report absent.
	if existed, err := se.DeleteIfPresent([]byte("col-b")); err != nil || existed {
		t.Fatalf("DeleteIfPresent(col-b) = %v, %v; want false", existed, err)
	}
	if got, ok, _ := se.Get([]byte("col-a")); !ok || string(got) != "va" {
		t.Fatalf("col-a damaged by colliding conditional delete: %q, %v", got, ok)
	}
	if existed, err := se.DeleteIfPresent([]byte("col-a")); err != nil || !existed {
		t.Fatalf("DeleteIfPresent(col-a) = %v, %v; want true", existed, err)
	}
	if _, ok, _ := se.Get([]byte("col-a")); ok {
		t.Fatal("col-a survived its conditional delete")
	}
}
