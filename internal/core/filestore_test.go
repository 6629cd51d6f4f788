package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleondb/internal/device"
	"chameleondb/internal/device/filedev"
	"chameleondb/internal/simclock"
)

func fileTestConfig() Config {
	cfg := TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 32
	cfg.Levels = 3
	cfg.Ratio = 2
	cfg.ArenaBytes = 2 << 20
	cfg.LogBytes = 128 << 10
	return cfg
}

// TestOpenFileRestartDurability is the core-level restart test: open a fresh
// directory, write and flush, abandon the store without Close (the in-process
// stand-in for SIGKILL), reopen cold, recover, and read everything back.
func TestOpenFileRestartDurability(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()

	s, existing, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if existing {
		t.Fatal("fresh directory reported as existing")
	}
	se := s.NewSession(simclock.New(0))
	want := make(map[string][]byte)
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i%80)) // overwrites ride along
		v := bytes.Repeat([]byte{byte(i)}, i%96+1)
		if err := se.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[string(k)] = v
	}
	if err := se.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// No Close: the process "dies". The durable files must carry everything
	// acknowledged by the Flush.

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !existing {
		t.Fatal("reopen did not find existing state")
	}
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatalf("recover: %v", err)
	}
	se2 := s2.NewSession(simclock.New(0))
	for k, v := range want {
		got, ok, err := se2.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s after restart: got %q ok=%v err=%v, want %q", k, got, ok, err, v)
		}
	}
	if err := s2.VerifyIntegrity(simclock.New(0)); err != nil {
		t.Fatalf("integrity after restart: %v", err)
	}
	// The recovered store must accept and persist new writes across another
	// restart — including a clean Close this time.
	if err := se2.Put([]byte("post-restart"), []byte("second-generation")); err != nil {
		t.Fatal(err)
	}
	if err := se2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s3, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("third open: existing=%v err=%v", existing, err)
	}
	defer s3.Close()
	if err := s3.Recover(simclock.New(0)); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	se3 := s3.NewSession(simclock.New(0))
	got, ok, err := se3.Get([]byte("post-restart"))
	if err != nil || !ok || string(got) != "second-generation" {
		t.Fatalf("post-restart key after second restart: %q %v %v", got, ok, err)
	}
	for k, v := range want {
		got, ok, err := se3.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s after second restart: got %q ok=%v err=%v", k, got, ok, err)
		}
	}
}

// TestFlushSpacing pins the file backend's flush pacing: a session gets
// flushBurst flushes of credit and one more per flushSpacing after that, on
// the file backend only. The bound is a lower one, so a slow host cannot fail
// it.
func TestFlushSpacing(t *testing.T) {
	sim, err := Open(fileTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.spaceFlushes {
		t.Fatal("the simulated backend spaces flushes")
	}
	s, _, err := OpenFile(fileTestConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.spaceFlushes {
		t.Fatal("the file backend does not space flushes")
	}
	se := s.NewSession(simclock.New(0)).(*Session)
	const n = 3 * flushBurst
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got, min := time.Since(t0), (n-flushBurst-1)*flushSpacing; got < min {
		t.Fatalf("%d flushes took %v, spacing allows no less than %v", n, got, min)
	}
	// A session that has been idle holds flushBurst slots of credit, no more.
	time.Sleep(2 * flushBurst * flushSpacing)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		se.Flush()
	}
	if got, min := time.Since(t0), (n-flushBurst-1)*flushSpacing; got < min {
		t.Fatalf("after an idle period %d flushes took %v, spacing allows no less than %v", n, got, min)
	}
}

// TestOpenFileReopenPastLastRecord is the reopen-safety test for a host
// metadata record that is rewritten only when the segment directory changes:
// writes acknowledged in chunks reserved after the last record must all be
// found after a kill, the reopened log must resume above every one of them,
// and a clean Close must still hand the next open the exact tail.
func TestOpenFileReopenPastLastRecord(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	metaSyncs := func(s *Store) int64 { return s.Registry().Snapshot().Counters["filedev_meta_syncs"] }
	want := make(map[string][]byte)
	sessions := []*Session{s.NewSession(simclock.New(0)).(*Session), s.NewSession(simclock.New(0)).(*Session)}
	ack := func(s *Store, se *Session, round int) {
		t.Helper()
		for j := 0; j < 3; j++ {
			k := []byte(fmt.Sprintf("rk-%03d-%d", round, j))
			v := bytes.Repeat([]byte{byte(round)}, round%24+1)
			if err := se.Put(k, v); err != nil {
				t.Fatalf("put round %d: %v", round, err)
			}
			want[string(k)] = v
		}
		if err := se.Flush(); err != nil {
			t.Fatalf("flush round %d: %v", round, err)
		}
	}
	ack(s, sessions[0], 0) // maps the first segment: the last record for a while
	records := metaSyncs(s)
	for round := 1; round <= 40; round++ {
		ack(s, sessions[round%2], round)
	}
	if got := metaSyncs(s); got != records {
		t.Fatalf("host metadata rewritten %d times by 40 acks inside one segment", got-records)
	}
	if got := s.Registry().Snapshot().Histograms["filedev_sync_us"].Count; got < 41 {
		t.Fatalf("filedev_sync_us holds %d samples after 41 flushes", got)
	}
	oldTail := s.log.Tail() // every acknowledged LSN lies below it
	// No Close: the process "dies" with a record that predates 40 flushes.

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("reopen: existing=%v err=%v", existing, err)
	}
	if got := s2.log.Tail(); got < oldTail || got%s2.log.SegmentSize() != 0 {
		t.Fatalf("reopened tail %d, want the end of the highest mapped segment (>= %d)", got, oldTail)
	}
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		se := s.NewSession(simclock.New(0))
		for k, v := range want {
			got, ok, err := se.Get([]byte(k))
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %s %s: got %q ok=%v err=%v, want %q", k, when, got, ok, err, v)
			}
		}
	}
	check(s2, "after kill")
	// The first append of the new generation must land above everything the
	// old one acknowledged.
	se2 := s2.NewSession(simclock.New(0)).(*Session)
	first := []byte("first-after-reopen")
	if err := se2.Put(first, []byte("g2")); err != nil {
		t.Fatal(err)
	}
	want[string(first)] = []byte("g2")
	if lsn := s2.shardFor(s2.hashFn(first)).memMaxLSN; lsn < oldTail {
		t.Fatalf("first post-reopen append got LSN %d, below the old tail %d", lsn, oldTail)
	}
	if err := se2.Flush(); err != nil {
		t.Fatal(err)
	}
	ack(s2, se2, 41)
	closedTail := s2.log.Tail()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("third open: existing=%v err=%v", existing, err)
	}
	defer s3.Close()
	if got := s3.log.Tail(); got != closedTail {
		t.Fatalf("tail after clean Close = %d, want the exact tail %d", got, closedTail)
	}
	if err := s3.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	check(s3, "after clean restart")
}

// TestOpenFileKillAfterCleanReopen: a clean Close leaves the one record that
// carries the exact, mid-segment tail. The generation that reopens from it
// acknowledges writes inside the same segment — reservations that do not run
// the meta hook — so Recover must have replaced that record with a bound
// before any of them: after a kill, every one of those writes is found and the
// next generation appends above them.
func TestOpenFileKillAfterCleanReopen(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	want := make(map[string][]byte)
	ack := func(s *Store, gen, n int) {
		t.Helper()
		se := s.NewSession(simclock.New(0))
		for i := 0; i < n; i++ {
			k, v := []byte(fmt.Sprintf("g%d-%02d", gen, i)), []byte(fmt.Sprintf("val-%d-%d", gen, i))
			if err := se.Put(k, v); err != nil {
				t.Fatalf("gen %d put %d: %v", gen, i, err)
			}
			if err := se.Flush(); err != nil {
				t.Fatalf("gen %d flush %d: %v", gen, i, err)
			}
			want[string(k)] = v
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		se := s.NewSession(simclock.New(0))
		for k, v := range want {
			got, ok, err := se.Get([]byte(k))
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %s %s: got %q ok=%v err=%v, want %q", k, when, got, ok, err, v)
			}
		}
	}

	s1, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ack(s1, 1, 5)
	closedTail := s1.log.Tail()
	if closedTail%s1.log.SegmentSize() == 0 {
		t.Fatalf("closed tail %d is segment-aligned: the test needs a mid-segment tail", closedTail)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("reopen: existing=%v err=%v", existing, err)
	}
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	if got := s2.log.Tail(); got != closedTail {
		t.Fatalf("tail after clean reopen = %d, want to resume at %d", got, closedTail)
	}
	ack(s2, 2, 5)
	killedTail := s2.log.Tail()
	if killedTail/s2.log.SegmentSize() != closedTail/s2.log.SegmentSize() {
		t.Fatalf("second generation left the segment (%d -> %d): no reservation went unrecorded", closedTail, killedTail)
	}
	// No Close: killed.

	s3, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("reopen after kill: existing=%v err=%v", existing, err)
	}
	defer s3.Close()
	if got := s3.log.Tail(); got < killedTail {
		t.Fatalf("tail after kill = %d, below acknowledged LSNs (< %d)", got, killedTail)
	}
	if err := s3.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	check(s3, "after clean close, reopen, ack, kill")
	se := s3.NewSession(simclock.New(0))
	first := []byte("g3-first")
	if err := se.Put(first, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if lsn := s3.shardFor(s3.hashFn(first)).memMaxLSN; lsn < killedTail {
		t.Fatalf("first append of the third generation got LSN %d, below the killed tail %d", lsn, killedTail)
	}
}

// TestOpenFileRestartWithMaintenance exercises the restart path after enough
// writes to force flushes, spills, compactions, and log GC — so the host
// metadata record has been rewritten by segment churn, tables live above the
// persisted allocator mark, and ReserveFloor does real work on reattach.
func TestOpenFileRestartWithMaintenance(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	se := s.NewSession(c)
	want := make(map[string][]byte)
	for i := 0; i < 1200; i++ {
		k := []byte(fmt.Sprintf("mk-%04d", i%150))
		v := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, i%40+1)
		if err := se.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[string(k)] = v
		if i%200 == 199 {
			if err := s.FlushAll(c); err != nil {
				t.Fatalf("FlushAll at %d: %v", i, err)
			}
			if _, err := s.CompactLog(c, 64<<10); err != nil {
				t.Fatalf("CompactLog at %d: %v", i, err)
			}
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("reopen: existing=%v err=%v", existing, err)
	}
	defer s2.Close()
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := s2.VerifyIntegrity(simclock.New(0)); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	se2 := s2.NewSession(simclock.New(0))
	for k, v := range want {
		got, ok, err := se2.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s after churny restart: got %q ok=%v err=%v", k, got, ok, err)
		}
	}
}

// TestOpenFileGeometryMismatch reopens a directory with a different config
// and expects a refusal.
func TestOpenFileGeometryMismatch(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Shards = 8
	if _, _, err := OpenFile(bad, dir); err == nil {
		t.Fatal("reopen with different shard count succeeded")
	}
}

// TestOpenFileRefusesOldLogFormat: a directory whose host state carries an
// older version — a build that stored the key hash in every log entry — is
// refused with an error naming both versions and the format change, and the
// refusal leaves every file in the directory byte-identical.
func TestOpenFileRefusesOldLogFormat(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 50; i++ {
		if err := se.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the host state's version word to 3 through the backend, so the
	// record's checksum still holds and only the version is wrong.
	med, err := filedev.Open(filedev.Options{
		Dir:           dir,
		Capacity:      cfg.ArenaBytes,
		AccessUnit:    device.OptanePmem.AccessUnit,
		MetaSlotBytes: hostStateMax(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := bytes.Clone(med.Meta())
	if v := binary.LittleEndian.Uint64(meta); v != hostStateVersion {
		t.Fatalf("fresh directory records version %d, want %d", v, hostStateVersion)
	}
	binary.LittleEndian.PutUint64(meta, 3)
	if err := med.WriteMeta(meta, -1); err != nil {
		t.Fatal(err)
	}
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}

	snapshot := func() map[string][]byte {
		t.Helper()
		files := make(map[string][]byte)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	before := snapshot()
	s2, _, err := OpenFile(cfg, dir)
	if err == nil {
		s2.Close()
		t.Fatal("OpenFile accepted a directory with host state version 3")
	}
	for _, want := range []string{"version 3", "want 4", "log entry format"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("refused open changed the directory's files: %d -> %d", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("refused open changed %s", name)
		}
	}
}

// TestHostStateRoundtrip round-trips the host metadata blob.
func TestHostStateRoundtrip(t *testing.T) {
	hs := hostState{
		fp:                fingerprintOf(fileTestConfig()),
		ArenaNext:         123456,
		LogHead:           32 << 10,
		LogNext:           96 << 10,
		Segs:              map[int64]int64{1: 256, 2: 33024, 5: 66048},
		ManifestSlotBytes: 512,
		ManifestOffs:      []int64{256, 1280, 2304, 3328},
		ReplID:            "4f2d1c0b9a87654321fedcba0123456789abcdef",
		ReplEpoch:         3,
		ReplApplied:       64 << 10,
	}
	got, err := decodeHostState(encodeHostState(hs))
	if err != nil {
		t.Fatal(err)
	}
	if got.fp != hs.fp || got.ArenaNext != hs.ArenaNext || got.LogHead != hs.LogHead || got.LogNext != hs.LogNext {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, hs)
	}
	if got.ReplID != hs.ReplID || got.ReplEpoch != hs.ReplEpoch || got.ReplApplied != hs.ReplApplied {
		t.Fatalf("roundtrip lost replication identity: %+v vs %+v", got, hs)
	}
	if len(got.Segs) != len(hs.Segs) || len(got.ManifestOffs) != len(hs.ManifestOffs) {
		t.Fatalf("roundtrip lost entries: %+v", got)
	}
	for k, v := range hs.Segs {
		if got.Segs[k] != v {
			t.Fatalf("segment %d: %d != %d", k, got.Segs[k], v)
		}
	}
}

// FuzzHostStateDecode: arbitrary bytes must decode or error, never panic,
// mirroring FuzzFileManifestDecode one layer up.
func FuzzHostStateDecode(f *testing.F) {
	f.Add(encodeHostState(hostState{
		fp:           fingerprintOf(fileTestConfig()),
		ManifestOffs: []int64{256, 512, 768, 1024},
		Segs:         map[int64]int64{0: 256},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, b []byte) {
		hs, err := decodeHostState(b)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something decodable.
		if _, err := decodeHostState(encodeHostState(hs)); err != nil {
			t.Fatalf("roundtrip of decoded state failed: %v", err)
		}
	})
}
