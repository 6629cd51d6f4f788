package filedev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testOpts(dir string) Options {
	return Options{
		Dir:           dir,
		Capacity:      1 << 20,
		AccessUnit:    256,
		SegmentBytes:  64 << 10,
		MetaSlotBytes: 4096,
	}
}

func mustOpen(t *testing.T, opt Options) *Dev {
	t.Helper()
	d, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

// TestWriteReadRoundtrip writes across a segment boundary, reopens the
// directory without a clean Close (the SIGKILL image: the page cache survives
// in the test world exactly like synced data), and reads everything back.
func TestWriteReadRoundtrip(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	data := bytes.Repeat([]byte("chameleon"), 20000) // ~180 KB, spans 3 segments
	if err := d.WriteDurable(10_000, data, true); err != nil {
		t.Fatalf("WriteDurable: %v", err)
	}
	if err := d.WriteMeta([]byte("host-state-1"), -1); err != nil {
		t.Fatalf("WriteMeta: %v", err)
	}
	// No Close: reattach cold.
	d2 := mustOpen(t, opt)
	if !d2.Existing() {
		t.Fatal("reopen did not find existing state")
	}
	if got := string(d2.Meta()); got != "host-state-1" {
		t.Fatalf("Meta = %q, want host-state-1", got)
	}
	img := make([]byte, opt.Capacity)
	if err := d2.LoadInto(img); err != nil {
		t.Fatalf("LoadInto: %v", err)
	}
	if !bytes.Equal(img[10_000:10_000+len(data)], data) {
		t.Fatal("reloaded image does not match written data")
	}
	for _, b := range img[:10_000] {
		if b != 0 {
			t.Fatal("bytes before the write are not zero")
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestMetaRecordAlternation checks that records alternate slots by sequence
// parity and that reopen always returns the newest one.
func TestMetaRecordAlternation(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	for i := 1; i <= 5; i++ {
		payload := []byte{byte(i), 0xAB}
		if err := d.WriteMeta(payload, -1); err != nil {
			t.Fatalf("WriteMeta %d: %v", i, err)
		}
	}
	d2 := mustOpen(t, opt)
	if got := d2.Meta(); len(got) != 2 || got[0] != 5 {
		t.Fatalf("Meta = %v, want [5 171]", got)
	}
}

// TestTornMetaFallsBack writes a good record, then a torn one (the power-cut
// image of a metadata persist); reopen must fall back to the good record.
func TestTornMetaFallsBack(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteMeta([]byte("good-record"), -1); err != nil {
		t.Fatal(err)
	}
	// Tear after 3 payload bytes: the header (with full length and checksum)
	// lands but most of the payload does not.
	if err := d.WriteMeta([]byte("newer-but-torn"), 3); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	if got := string(d2.Meta()); got != "good-record" {
		t.Fatalf("Meta after torn write = %q, want good-record", got)
	}
}

// TestZeroTearKeepsPrevious is the tear=0 case handled one level up (the
// arena skips the write entirely); at this level a zero-byte tear still
// writes the header, which must also fail validation.
func TestZeroTearKeepsPrevious(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteMeta([]byte("kept"), -1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("gone"), 0); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	if got := string(d2.Meta()); got != "kept" {
		t.Fatalf("Meta = %q, want kept", got)
	}
}

// TestGeometryMismatchRejected reopens with different geometry and expects a
// refusal, not a reinterpretation.
func TestGeometryMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	if err := d.WriteMeta([]byte("x"), -1); err != nil {
		t.Fatal(err)
	}
	d.Close()
	opt := testOpts(dir)
	opt.SegmentBytes *= 2
	if _, err := Open(opt); err == nil {
		t.Fatal("Open with mismatched geometry succeeded")
	}
}

// TestBootstrapCrashReinitializes models a crash after the manifest header
// became durable but before the first metadata record: nothing was ever
// acknowledged, so reopen must reinitialize rather than fail.
func TestBootstrapCrashReinitializes(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	// A segment file exists but no record was ever written.
	if err := d.WriteDurable(0, []byte("pre-ack garbage"), true); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, testOpts(dir))
	if d2.Existing() {
		t.Fatal("directory with no metadata record reported as existing")
	}
	img := make([]byte, testOpts(dir).Capacity)
	if err := d2.LoadInto(img); err != nil {
		t.Fatal(err)
	}
	for _, b := range img {
		if b != 0 {
			t.Fatal("reinitialized directory still holds old segment data")
		}
	}
}

// TestZeroDurableSkipsMissingSegments zeroes a range with no backing file —
// it must be a no-op, not a file creation.
func TestZeroDurableSkipsMissingSegments(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.ZeroDurable(opt.SegmentBytes*3, opt.SegmentBytes); err != nil {
		t.Fatalf("ZeroDurable: %v", err)
	}
	if _, err := os.Stat(filepath.Join(opt.Dir, "seg-000003.dat")); !os.IsNotExist(err) {
		t.Fatal("ZeroDurable created a segment file")
	}
}

// TestLoadIntoZeroesMissingSegments: LoadInto overwrites every byte of its
// buffer, a prefix of the address space or the whole of it. Spans with no
// segment file read as zero whatever the buffer held (an arena reloads into
// its live volatile image, not into a fresh slice).
func TestLoadIntoZeroesMissingSegments(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	defer d.Close()
	data := bytes.Repeat([]byte("seg1"), 1000)
	at := opt.SegmentBytes + 512 // segment 1 only
	if err := d.WriteBack(at, data); err != nil {
		t.Fatalf("WriteBack: %v", err)
	}
	for _, n := range []int64{opt.Capacity, at + 100, 3 * opt.SegmentBytes / 2} {
		img := bytes.Repeat([]byte{0xff}, int(n))
		if err := d.LoadInto(img); err != nil {
			t.Fatalf("LoadInto(%d bytes): %v", n, err)
		}
		want := make([]byte, n)
		copy(want[at:], data)
		if !bytes.Equal(img, want) {
			i := 0
			for img[i] == want[i] {
				i++
			}
			t.Fatalf("LoadInto(%d bytes): byte %d = %#x, want %#x", n, i, img[i], want[i])
		}
	}
}

// TestSegmentCreateSyncsDirectory: with the fix in place, a segment file's
// directory entry is fsync'd at creation (UnsyncedCreates stays empty), so a
// crash immediately after the creating persist cannot unlink it.
func TestSegmentCreateSyncsDirectory(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	base := d.DirSyncs() // initialize pays one
	if err := d.WriteDurable(0, []byte("durable"), true); err != nil {
		t.Fatal(err)
	}
	if got := d.UnsyncedCreates(); len(got) != 0 {
		t.Fatalf("UnsyncedCreates = %v, want none", got)
	}
	if d.DirSyncs() != base+1 {
		t.Fatalf("segment creation issued %d dir syncs, want 1", d.DirSyncs()-base)
	}
}

// TestCloseSyncsDirectory is the regression test for the Close bugfix: Close
// must fsync the manifest and the directory entry before returning, so a
// clean shutdown leaves nothing volatile even if creation-time syncs were
// elided. The counter shows the Close-time sync; the DisableDirSync leg
// demonstrates the data-loss scenario the sync prevents.
func TestCloseSyncsDirectory(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteDurable(0, []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	before := d.DirSyncs()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.DirSyncs() != before+1 {
		t.Fatalf("Close issued %d dir syncs, want 1", d.DirSyncs()-before)
	}
}

// TestDirSyncLossScenario demonstrates what the creation-time and Close-time
// directory syncs prevent: with both disabled, a crash can unlink a freshly
// created segment file, silently zeroing everything it held — including data
// whose persist was acknowledged with a real fdatasync.
func TestDirSyncLossScenario(t *testing.T) {
	opt := testOpts(t.TempDir())
	opt.DisableDirSync = true
	d := mustOpen(t, opt)
	payload := []byte("acknowledged-but-doomed")
	if err := d.WriteDurable(opt.SegmentBytes*2, payload, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	lost := d.UnsyncedCreates()
	if len(lost) == 0 {
		t.Fatal("expected the new segment's directory entry to be unsynced")
	}
	// The simulated power failure: unsynced directory entries never became
	// durable, so the files they named do not exist after restart.
	for _, path := range lost {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	reopened := mustOpen(t, testOpts(opt.Dir))
	img := make([]byte, opt.Capacity)
	if err := reopened.LoadInto(img); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(img, payload) {
		t.Fatal("data survived without directory syncs — the loss scenario no longer reproduces")
	}
}

// TestZeroDurableSyncedBeforeMeta is the regression test for the
// freed-region resurrection bug: zeroes written by ZeroDurable stay
// host-cached, so a metadata record that reuses the region must not become
// durable before them. The synced WriteMeta path must fdatasync every
// dirty segment file (clearing the tracking); the torn path models a power
// failure and must sync nothing.
func TestZeroDurableSyncedBeforeMeta(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	// Put real bytes in segments 0 and 1 so ZeroDurable has files to dirty.
	if err := d.WriteDurable(0, bytes.Repeat([]byte{0xEE}, int(opt.SegmentBytes)+512), true); err != nil {
		t.Fatal(err)
	}
	if err := d.ZeroDurable(256, opt.SegmentBytes); err != nil { // spans seg 0 and 1
		t.Fatal(err)
	}
	if got := d.DirtySegments(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("DirtySegments after zeroing = %v, want [0 1]", got)
	}
	// A torn metadata persist is the power-cut image: nothing is synced, the
	// zeroes stay pending.
	if err := d.WriteMeta([]byte("torn"), 2); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtySegments(); len(got) != 2 {
		t.Fatalf("torn WriteMeta synced pending zeroes: dirty = %v", got)
	}
	// The synced record is what can make the region reachable again; it must
	// carry the zeroes to stable storage first.
	if err := d.WriteMeta([]byte("committed"), -1); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtySegments(); len(got) != 0 {
		t.Fatalf("synced WriteMeta left dirty segments %v", got)
	}
}

// TestParseSegName rejects every non-canonical segment file name a directory
// scan can encounter, so junk names can never alias onto a real index.
func TestParseSegName(t *testing.T) {
	cases := []struct {
		name string
		idx  int64
		ok   bool
	}{
		{"seg-000000.dat", 0, true},
		{"seg-000042.dat", 42, true},
		{"seg-1000000.dat", 1000000, true}, // beyond the %06d padding width
		{"seg-1.dat", 0, false},            // non-canonical padding
		{"seg-0000001.dat", 0, false},      // over-padded
		{"seg-000001.dat.bak", 0, false},   // trailing suffix
		{"seg--00001.dat", 0, false},       // negative
		{"seg-+00001.dat", 0, false},       // signed
		{"seg-00000x.dat", 0, false},
		{"seg-.dat", 0, false},
		{"MANIFEST", 0, false},
	}
	for _, c := range cases {
		idx, ok := parseSegName(c.name)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("parseSegName(%q) = (%d, %v), want (%d, %v)", c.name, idx, ok, c.idx, c.ok)
		}
	}
}

// TestScanIgnoresJunkNames drops non-canonical look-alike files into a valid
// store directory; reopen must ignore them instead of aliasing them onto
// canonical indices (which would fail with ErrNotExist or leak descriptors).
func TestScanIgnoresJunkNames(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	data := []byte("real segment data")
	if err := d.WriteDurable(0, data, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"seg-1.dat", "seg-000000.dat.bak", "seg--00001.dat"} {
		if err := os.WriteFile(filepath.Join(opt.Dir, junk), []byte("junk"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	d2 := mustOpen(t, opt)
	defer d2.Close()
	if !d2.Existing() {
		t.Fatal("junk file names broke reattach")
	}
	img := make([]byte, opt.Capacity)
	if err := d2.LoadInto(img); err != nil {
		t.Fatalf("LoadInto: %v", err)
	}
	if !bytes.Equal(img[:len(data)], data) {
		t.Fatal("junk file content aliased onto a canonical segment")
	}
}

// TestAttachErrorClosesFiles forces attach to fail after the manifest and the
// first segment file were opened (the second canonical segment path is a
// directory) and checks no descriptors leak from the error path.
func TestAttachErrorClosesFiles(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteDurable(0, []byte("seg zero exists"), true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A canonical segment name that cannot be opened as a file.
	if err := os.Mkdir(filepath.Join(opt.Dir, "seg-000001.dat"), 0o777); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	before := openFDs()
	if _, err := Open(opt); err == nil {
		t.Fatal("Open over an unopenable segment path succeeded")
	}
	if after := openFDs(); after != before {
		t.Fatalf("failed Open leaked descriptors: %d open before, %d after", before, after)
	}
}

// TestRecordChecksumCoversHeader corrupts a stale record's seq word to a
// higher value of the right parity — under a payload-only checksum it would
// win newest-record selection over the intact newer record. The header-covered
// checksum must reject it.
func TestRecordChecksumCoversHeader(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteMeta([]byte("stale"), -1); err != nil { // seq 1 -> slot 1
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("newest"), -1); err != nil { // seq 2 -> slot 0
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opt.Dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bump slot 1's seq from 1 to 3: same parity (passes the slot check),
	// higher than the genuine newest record's seq 2.
	raw[slot0Off+opt.MetaSlotBytes] = 3
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	defer d2.Close()
	if got := string(d2.Meta()); got != "newest" {
		t.Fatalf("Meta = %q, want %q — a corrupted seq word won newest-record selection", got, "newest")
	}
}

// TestWriteOutsideCapacityRejected bounds-checks the write path.
func TestWriteOutsideCapacityRejected(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteDurable(opt.Capacity-4, make([]byte, 8), false); err == nil {
		t.Fatal("write past capacity succeeded")
	}
	if err := d.WriteMeta(make([]byte, opt.MetaSlotBytes), -1); err == nil {
		t.Fatal("oversized metadata record accepted")
	}
}

// TestBarrierSyncsEachDirtyFileOnce: write-backs dirty their segment files
// and sync nothing; one barrier fdatasyncs each dirty file exactly once,
// however many write-backs it holds, and a barrier with nothing dirty costs
// no fdatasync at all.
func TestBarrierSyncsEachDirtyFileOnce(t *testing.T) {
	count, restore := CountSegmentFdatasyncs()
	defer restore()
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	defer d.Close()
	for i := int64(0); i < 8; i++ { // four write-backs in each of segments 0 and 2
		off := (i%2)*2*opt.SegmentBytes + (i/2)*512
		if err := d.WriteBack(off, []byte("write-back")); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(); n != 0 {
		t.Fatalf("write-backs issued %d fdatasyncs, want 0", n)
	}
	if got := d.DirtySegments(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("DirtySegments = %v, want [0 2]", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Fatalf("barrier over two dirty files issued %d fdatasyncs, want 2", n)
	}
	if got := d.DirtySegments(); len(got) != 0 {
		t.Fatalf("barrier left dirty segments %v", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Fatalf("barrier with nothing dirty issued %d fdatasyncs", n-2)
	}
	// A synced write is a barrier over every earlier write-back, then its own
	// file's.
	if err := d.WriteBack(opt.SegmentBytes, []byte("earlier")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDurable(3*opt.SegmentBytes, []byte("synced"), true); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 4 {
		t.Fatalf("synced write after a write-back elsewhere issued %d fdatasyncs, want 2", n-2)
	}
}

// TestBarrierKeepsFileWrittenDuringItsSync: a write-back that lands on a file
// while a barrier is syncing it is not covered by that sync, so the barrier
// must leave the file dirty for the next one — it drops a file only if no
// write-back marked it after the barrier's snapshot.
func TestBarrierKeepsFileWrittenDuringItsSync(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	defer d.Close()
	if err := d.WriteBack(0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	var late sync.Once
	restore := tapSyncs(func(f *os.File) error {
		err := fdatasyncFile(f)
		late.Do(func() {
			if err := d.WriteBack(opt.AccessUnit, []byte("during")); err != nil {
				t.Error(err)
			}
		})
		return err
	})
	defer restore()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtySegments(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after a barrier that raced a write-back to its file, DirtySegments = %v, want [0]", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtySegments(); len(got) != 0 {
		t.Fatalf("second barrier left dirty segments %v", got)
	}
}

// TestSyncHistogramCountsEveryFdatasync: filedev_sync_us, which INFO
// persistence reports, records every fdatasync of a segment file —
// barriers, synced writes, the barrier inside a synced WriteMeta and Close.
func TestSyncHistogramCountsEveryFdatasync(t *testing.T) {
	count, restore := CountSegmentFdatasyncs()
	defer restore()
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	steps := []func() error{
		func() error { return d.WriteBack(0, []byte("a")) },
		func() error { return d.WriteBack(opt.SegmentBytes, []byte("b")) },
		d.Sync,
		func() error { return d.WriteDurable(2*opt.SegmentBytes, []byte("c"), true) },
		func() error { return d.ZeroDurable(0, opt.AccessUnit) },
		func() error { return d.WriteMeta([]byte("meta"), -1) },
		func() error { return d.WriteBack(0, []byte("d")) },
		d.Close,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if count() == 0 {
		t.Fatal("no fdatasync issued")
	}
	if got, want := d.SyncCount(), count(); got != want {
		t.Fatalf("filedev_sync_us recorded %d fdatasyncs, %d were issued", got, want)
	}
}

// TestPowerCutRestoresUnsynced exercises the test-only power-cut model: a
// cut rolls back every write no fdatasync covered, newest first, down to
// what the last barrier made durable, keeps everything synced, and fails
// every later write and sync.
func TestPowerCutRestoresUnsynced(t *testing.T) {
	cut := ModelPowerCuts()
	defer cut.Restore()
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	write := func(off int64, s string, sync bool) {
		t.Helper()
		if err := d.WriteDurable(off, []byte(s), sync); err != nil {
			t.Fatal(err)
		}
	}
	write(0, "synced-0", true)
	if err := d.WriteMeta([]byte("meta"), -1); err != nil { // or reopen starts over
		t.Fatal(err)
	}
	write(opt.SegmentBytes, "barriered", false)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	write(0, "lost-one", false) // over the synced bytes, twice: the cut must
	write(0, "lost-two", false) // restore the oldest image, not the newest undo
	write(opt.SegmentBytes, "lost-too", false)
	write(2*opt.SegmentBytes, "lost-new", false) // a fresh file's data
	if err := d.WriteMeta([]byte("torn"), 2); err != nil {
		t.Fatal(err)
	}
	if err := cut.Cut(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBack(0, []byte("x")); !errors.Is(err, errPowerCut) {
		t.Fatalf("write-back after the power cut = %v, want %v", err, errPowerCut)
	}
	if err := d.WriteMeta([]byte("after"), -1); !errors.Is(err, errPowerCut) {
		t.Fatalf("WriteMeta after the power cut = %v, want %v", err, errPowerCut)
	}
	if err := d.Close(); !errors.Is(err, errPowerCut) {
		t.Fatalf("Close after the power cut = %v, want %v", err, errPowerCut)
	}
	cut.Restore()
	raw, err := os.ReadFile(filepath.Join(opt.Dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if _, p := newestRecord(raw, opt.MetaSlotBytes); string(p) != "meta" {
		t.Fatalf("newest record after the cut = %q, want %q", p, "meta")
	}
	d2 := mustOpen(t, opt)
	defer d2.Close()
	img := make([]byte, opt.Capacity)
	if err := d2.LoadInto(img); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		off  int64
		want string
	}{
		{0, "synced-0"},
		{opt.SegmentBytes, "barriered"},
		{2 * opt.SegmentBytes, "\x00\x00\x00\x00\x00\x00\x00\x00"},
	} {
		if got := string(img[c.off : c.off+int64(len(c.want))]); got != c.want {
			t.Errorf("bytes at %d after the cut = %q, want %q", c.off, got, c.want)
		}
	}
}
