// Package filedev is the file-backed persistence backend behind the pmem
// arena: the second implementation of the device boundary, for running
// chameleon-server against a real directory instead of the simulated medium.
//
// The arena's flat address space is mirrored onto fixed-span segment files
// (seg-000000.dat covers [0, SegmentBytes), and so on), created lazily the
// first time a persist touches their span and fsync'd — file and directory
// entry — at creation, so a durable index can never reference a file a crash
// would unlink. A write-back (WriteBack, ZeroDurable) is a pwrite that marks
// its files dirty; a barrier (Sync, and the start of every synced WriteMeta)
// fdatasyncs each dirty file once. The persist points of the simulated device
// stay one-to-one with pwrites here, which is what keeps the crash-sweep fault
// plans meaningful on both backends, while an fdatasync is paid only where the
// engine promises durability. The 256 B access-unit accounting stays in the
// device timing model, unchanged.
//
// A MANIFEST file carries a checksummed geometry header and two alternating
// checksummed record slots for the engine's host metadata (the wlog segment
// directory, allocator marks, shard manifest locations — see core's
// hostState). Records are framed as [seq, length, checksum, payload], the
// checksum covering the seq and length words as well as the payload; a torn
// or corrupted record fails it on reopen and recovery falls back to the
// other slot, exactly like the engine's own dual-slot shard manifests. The
// first record is written before any data can be acknowledged, so a directory
// with a valid header but no valid record is a store that crashed during
// bootstrap: nothing was ever acknowledged, and Open reinitializes it.
package filedev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleondb/internal/histogram"
	"chameleondb/internal/obs"
	"chameleondb/internal/xhash"
)

const (
	// ManifestName is the superblock file inside the backend directory.
	ManifestName = "MANIFEST"

	magic       = "CHAMFD01"
	headerBytes = 64 // magic(8) version(8) capacity(8) segBytes(8) slotBytes(8) unit(8) sum(8) pad(8)
	slot0Off    = 4096

	recHeader = 24 // seq(8) len(4) pad(4) sum(8)
)

// ErrCorruptManifest is returned when the MANIFEST geometry header fails its
// checksum while segment files exist — durable state this process cannot
// safely interpret.
var ErrCorruptManifest = errors.New("filedev: corrupt manifest header over existing segment data")

// ErrGeometry is returned when an existing directory's recorded geometry does
// not match the requested options.
var ErrGeometry = errors.New("filedev: geometry mismatch with existing directory")

// tap, when set, stands in for every pwrite and fdatasync a Dev issues on its
// segment files and MANIFEST records. The tests install one (export_test.go)
// to cut the power under a running store and to count syncs; left nil, a Dev
// calls the OS directly.
var tap atomic.Pointer[ioTap]

type ioTap struct {
	pwrite    func(f *os.File, p []byte, off int64) error
	fdatasync func(f *os.File) error
}

func pwrite(f *os.File, p []byte, off int64) error {
	if t := tap.Load(); t != nil {
		return t.pwrite(f, p, off)
	}
	_, err := f.WriteAt(p, off)
	return err
}

func fdatasync(f *os.File) error {
	if t := tap.Load(); t != nil {
		return t.fdatasync(f)
	}
	return fdatasyncFile(f)
}

// Options configure a backend directory.
type Options struct {
	// Dir is the backing directory, created if absent.
	Dir string
	// Capacity is the arena size in bytes the directory mirrors.
	Capacity int64
	// AccessUnit is the media line size (256 for the Optane profile); segment
	// spans must be multiples of it.
	AccessUnit int64
	// SegmentBytes is the address span of one segment file. Defaults to 4 MiB.
	SegmentBytes int64
	// MetaSlotBytes sizes each of the two manifest record slots; it must
	// exceed the engine's largest host-metadata record by recHeader bytes.
	// Defaults to 64 KiB.
	MetaSlotBytes int64
	// DisableDirSync skips the directory-entry fsync after segment-file
	// creation and on Close. Test-only: it exists so the regression tests can
	// demonstrate the data loss the directory syncs prevent.
	DisableDirSync bool
}

func (o *Options) defaults() error {
	if o.Dir == "" {
		return fmt.Errorf("filedev: Dir required")
	}
	if o.Capacity <= 0 {
		return fmt.Errorf("filedev: Capacity must be positive")
	}
	if o.AccessUnit <= 0 {
		o.AccessUnit = 256
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < o.AccessUnit || o.SegmentBytes%o.AccessUnit != 0 {
		return fmt.Errorf("filedev: SegmentBytes %d must be a positive multiple of the access unit %d", o.SegmentBytes, o.AccessUnit)
	}
	if o.MetaSlotBytes == 0 {
		o.MetaSlotBytes = 64 << 10
	}
	if o.MetaSlotBytes < recHeader+8 {
		return fmt.Errorf("filedev: MetaSlotBytes %d too small", o.MetaSlotBytes)
	}
	return nil
}

// Dev is one backend directory. It implements pmem.Medium.
type Dev struct {
	opt Options

	mu       sync.Mutex
	dir      *os.File
	manifest *os.File
	segs     map[int64]*os.File
	metaSeq  uint64
	meta     []byte // newest valid record payload at Open, nil if fresh
	existing bool
	closed   bool

	// unsynced tracks files created since their directory entry was last
	// fsync'd. Always empty unless DisableDirSync is set.
	unsynced []string

	// dirty maps the index of every segment file holding a write-back or
	// zeroing that has not reached stable storage to the generation (wbGen)
	// of its newest one. A barrier fdatasyncs each file once and drops it
	// unless a newer write landed meanwhile. WriteMeta barriers before it
	// makes the next record durable: the record is what can make a
	// freed-then-reused arena region reachable again (it carries the wlog
	// segment directory), and a power cut must never be able to roll back the
	// zeroes while keeping the mapping — that would resurrect the freed
	// region's stale bytes at new LSNs.
	dirty map[int64]uint64
	wbGen uint64

	// dirSyncs counts directory-entry fsyncs, so the regression tests can
	// assert that creation and Close both pay one.
	dirSyncs atomic.Int64

	// syncUs is the wall-clock latency of every fdatasync of a segment file —
	// barriers and Close — in microseconds: the primitive a durable
	// acknowledgement costs. metaSyncs counts synced metadata records.
	syncUs    histogram.Histogram
	metaSyncs atomic.Int64
}

// Register exports the backend's sync metrics into r.
func (d *Dev) Register(r *obs.Registry) {
	r.Histogram("filedev_sync_us", &d.syncUs)
	r.CounterFunc("filedev_meta_syncs", d.metaSyncs.Load)
}

// Open attaches to (or initializes) a backend directory. After Open, Existing
// reports whether valid prior state was found and Meta returns the newest
// host-metadata record.
func Open(opt Options) (*Dev, error) {
	if err := opt.defaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.Open(opt.Dir)
	if err != nil {
		return nil, err
	}
	d := &Dev{
		opt:   opt,
		dir:   dir,
		segs:  make(map[int64]*os.File),
		dirty: make(map[int64]uint64),
	}
	if err := d.attach(); err != nil {
		// attach can fail partway through opening the manifest and segment
		// files; close whatever it already opened so the error path does not
		// leak descriptors.
		if d.manifest != nil {
			d.manifest.Close()
		}
		for _, f := range d.segs {
			f.Close()
		}
		dir.Close()
		return nil, err
	}
	return d, nil
}

// attach reads or initializes the MANIFEST and opens existing segment files.
func (d *Dev) attach() error {
	segIdx, err := d.scanSegments()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(d.opt.Dir, ManifestName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if len(segIdx) > 0 {
			return fmt.Errorf("%w: segment files without a MANIFEST", ErrCorruptManifest)
		}
		return d.initialize()
	case err != nil:
		return err
	}
	switch err := parseHeader(raw, &d.opt); {
	case errors.Is(err, ErrGeometry):
		// A checksum-valid header that disagrees with the requested geometry
		// is a real directory opened with the wrong config — never reinit.
		return err
	case err != nil:
		if len(segIdx) > 0 {
			return fmt.Errorf("%w: %v", ErrCorruptManifest, err)
		}
		// A manifest that never became durable, with no data behind it:
		// nothing was ever acknowledged, start over.
		return d.initialize()
	}
	seq, payload := newestRecord(raw, d.opt.MetaSlotBytes)
	if payload == nil {
		// Valid header, no valid record: the store crashed during bootstrap,
		// before the engine's first metadata persist — and the first record
		// is always durable before the first acknowledgement, so nothing
		// acknowledged can be behind these files. Reinitialize.
		for _, idx := range segIdx {
			if err := os.Remove(d.segPath(idx)); err != nil {
				return err
			}
		}
		return d.initialize()
	}
	d.metaSeq = seq
	d.meta = payload
	d.existing = true
	var oerr error
	d.manifest, oerr = os.OpenFile(filepath.Join(d.opt.Dir, ManifestName), os.O_RDWR, 0o666)
	if oerr != nil {
		return oerr
	}
	for _, idx := range segIdx {
		f, err := os.OpenFile(d.segPath(idx), os.O_RDWR, 0o666)
		if err != nil {
			return err
		}
		d.segs[idx] = f
	}
	return nil
}

// initialize writes a fresh geometry header and syncs it and its directory
// entry before any segment file can exist.
func (d *Dev) initialize() error {
	f, err := os.OpenFile(filepath.Join(d.opt.Dir, ManifestName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	if err := f.Truncate(slot0Off + 2*d.opt.MetaSlotBytes); err != nil {
		f.Close()
		return err
	}
	if _, err := f.WriteAt(encodeHeader(d.opt), 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := d.syncDir(); err != nil {
		f.Close()
		return err
	}
	d.manifest = f
	return nil
}

func encodeHeader(opt Options) []byte {
	h := make([]byte, headerBytes)
	copy(h[0:8], magic)
	binary.LittleEndian.PutUint64(h[8:16], 1) // version
	binary.LittleEndian.PutUint64(h[16:24], uint64(opt.Capacity))
	binary.LittleEndian.PutUint64(h[24:32], uint64(opt.SegmentBytes))
	binary.LittleEndian.PutUint64(h[32:40], uint64(opt.MetaSlotBytes))
	binary.LittleEndian.PutUint64(h[40:48], uint64(opt.AccessUnit))
	binary.LittleEndian.PutUint64(h[48:56], xhash.Sum64(h[0:48]))
	return h
}

// parseHeader validates raw's geometry header against opt. It returns nil
// only for a checksum-valid header whose geometry matches exactly.
func parseHeader(raw []byte, opt *Options) error {
	if len(raw) < headerBytes {
		return fmt.Errorf("short manifest (%d bytes)", len(raw))
	}
	if string(raw[0:8]) != magic {
		return fmt.Errorf("bad magic %q", raw[0:8])
	}
	if binary.LittleEndian.Uint64(raw[48:56]) != xhash.Sum64(raw[0:48]) {
		return fmt.Errorf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint64(raw[8:16]); v != 1 {
		return fmt.Errorf("unsupported version %d", v)
	}
	got := Options{
		Capacity:      int64(binary.LittleEndian.Uint64(raw[16:24])),
		SegmentBytes:  int64(binary.LittleEndian.Uint64(raw[24:32])),
		MetaSlotBytes: int64(binary.LittleEndian.Uint64(raw[32:40])),
		AccessUnit:    int64(binary.LittleEndian.Uint64(raw[40:48])),
	}
	if got.Capacity != opt.Capacity || got.SegmentBytes != opt.SegmentBytes ||
		got.MetaSlotBytes != opt.MetaSlotBytes || got.AccessUnit != opt.AccessUnit {
		return fmt.Errorf("%w: directory has capacity=%d seg=%d slot=%d unit=%d, want capacity=%d seg=%d slot=%d unit=%d",
			ErrGeometry, got.Capacity, got.SegmentBytes, got.MetaSlotBytes, got.AccessUnit,
			opt.Capacity, opt.SegmentBytes, opt.MetaSlotBytes, opt.AccessUnit)
	}
	return nil
}

// recordSum computes a record's checksum over the seq and len header words
// (hdr16, the first 16 header bytes) chained with the payload, matching the
// geometry header's whole-struct coverage: a corrupted-but-plausible seq or
// len over an intact payload region cannot win newest-record selection or
// misframe the payload.
func recordSum(hdr16, payload []byte) uint64 {
	return xhash.Seeded(xhash.Sum64(hdr16), payload)
}

// newestRecord decodes both record slots and returns the valid one with the
// highest sequence (nil payload if neither validates). Tolerant of arbitrary
// bytes: a torn or corrupted slot fails its checksum and is skipped.
func newestRecord(raw []byte, slotBytes int64) (seq uint64, payload []byte) {
	for slot := int64(0); slot < 2; slot++ {
		off := slot0Off + slot*slotBytes
		if off+recHeader > int64(len(raw)) {
			continue
		}
		hdr := raw[off : off+recHeader]
		s := binary.LittleEndian.Uint64(hdr[0:8])
		plen := int64(binary.LittleEndian.Uint32(hdr[8:12]))
		sum := binary.LittleEndian.Uint64(hdr[16:24])
		if s == 0 || plen <= 0 || plen > slotBytes-recHeader || off+recHeader+plen > int64(len(raw)) {
			continue
		}
		// Records alternate slots by sequence parity; a record sitting in the
		// wrong slot is framing garbage.
		if int64(s%2) != slot {
			continue
		}
		p := raw[off+recHeader : off+recHeader+plen]
		if recordSum(hdr[0:16], p) != sum {
			continue
		}
		if s > seq {
			seq, payload = s, append([]byte(nil), p...)
		}
	}
	return seq, payload
}

// Existing reports whether Open found valid prior state (a decodable
// host-metadata record).
func (d *Dev) Existing() bool { return d.existing }

// Meta returns the newest valid host-metadata record found at Open, nil for a
// fresh directory.
func (d *Dev) Meta() []byte { return d.meta }

// Dir returns the backing directory path.
func (d *Dev) Dir() string { return d.opt.Dir }

func (d *Dev) segPath(idx int64) string {
	return filepath.Join(d.opt.Dir, fmt.Sprintf("seg-%06d.dat", idx))
}

// parseSegName returns the index of a canonical segment file name
// ("seg-%06d.dat", as segPath writes them) and false for everything else:
// trailing suffixes, non-canonical zero-padding, signs, and out-of-range
// indices are all rejected, never aliased onto a canonical index.
func parseSegName(name string) (int64, bool) {
	const prefix, suffix = "seg-", ".dat"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	idx, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || idx < 0 || fmt.Sprintf("seg-%06d.dat", idx) != name {
		return 0, false
	}
	return idx, true
}

// scanSegments lists the indices of existing segment files.
func (d *Dev) scanSegments() ([]int64, error) {
	ents, err := os.ReadDir(d.opt.Dir)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, e := range ents {
		if idx, ok := parseSegName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// segSpan returns the byte length segment idx covers (the last segment can be
// shorter than SegmentBytes).
func (d *Dev) segSpan(idx int64) int64 {
	span := d.opt.SegmentBytes
	if rem := d.opt.Capacity - idx*d.opt.SegmentBytes; rem < span {
		span = rem
	}
	return span
}

// segFile returns the open file for segment idx, creating (and syncing file
// and directory entry) on first touch. create=false returns nil for segments
// that have no file yet.
func (d *Dev) segFile(idx int64, create bool) (*os.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("filedev: closed")
	}
	if f, ok := d.segs[idx]; ok {
		return f, nil
	}
	if !create {
		return nil, nil
	}
	f, err := os.OpenFile(d.segPath(idx), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(d.segSpan(idx)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	// The directory entry must be durable before any index that references
	// data in this segment can be: a create whose entry is lost to a crash
	// would silently zero everything the segment held.
	if d.opt.DisableDirSync {
		d.unsynced = append(d.unsynced, d.segPath(idx))
	} else if err := d.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	d.segs[idx] = f
	return f, nil
}

func (d *Dev) syncDir() error {
	d.dirSyncs.Add(1)
	return d.dir.Sync()
}

// DirSyncs returns the number of directory-entry fsyncs issued so far (test
// introspection for the Close regression test).
func (d *Dev) DirSyncs() int64 { return d.dirSyncs.Load() }

// UnsyncedCreates returns the paths of segment files created since their
// directory entry was last fsync'd. Always empty unless DisableDirSync is
// set; the dir-sync regression tests use it to simulate the unlink a power
// failure performs on an unsynced directory entry.
func (d *Dev) UnsyncedCreates() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.unsynced...)
}

// WriteBack implements pmem.Medium: pwrite the range into its segment files
// (creating them on first touch) and mark them dirty. Nothing is synced.
func (d *Dev) WriteBack(off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > d.opt.Capacity {
		return fmt.Errorf("filedev: write [%d, +%d) outside capacity %d", off, len(data), d.opt.Capacity)
	}
	for len(data) > 0 {
		idx := off / d.opt.SegmentBytes
		in := off % d.opt.SegmentBytes
		n := d.segSpan(idx) - in
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		f, err := d.segFile(idx, true)
		if err != nil {
			return err
		}
		if err := d.writeBack(f, idx, data[:n], in); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	return nil
}

// WriteDurable is WriteBack made durable before it returns when sync is set:
// a barrier, the write-back and a second barrier — Arena.Persist's order, so
// the range never reaches stable storage ahead of an earlier write-back — for
// a caller that holds a Dev rather than an arena.
func (d *Dev) WriteDurable(off int64, data []byte, sync bool) error {
	if !sync {
		return d.WriteBack(off, data)
	}
	if err := d.Sync(); err != nil {
		return err
	}
	if err := d.WriteBack(off, data); err != nil {
		return err
	}
	return d.Sync()
}

// writeBack pwrites p at offset in of segment idx and marks the file dirty.
// The mark follows the write, so a barrier that observes it covers the write.
func (d *Dev) writeBack(f *os.File, idx int64, p []byte, in int64) error {
	if err := pwrite(f, p, in); err != nil {
		return err
	}
	d.mu.Lock()
	d.wbGen++
	d.dirty[idx] = d.wbGen
	d.mu.Unlock()
	return nil
}

// Sync implements pmem.Medium: the barrier. It fdatasyncs every dirty segment
// file once. A file leaves the dirty set only if nothing was written to it
// after the snapshot, and only once its fdatasync has returned: a concurrent
// barrier that still finds it listed syncs it again instead of returning
// before the first sync is done.
func (d *Dev) Sync() error {
	type pending struct {
		idx int64
		gen uint64
		f   *os.File
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("filedev: closed")
	}
	var buf [8]pending // a barrier rarely finds more files dirty: no allocation
	snap := buf[:0]
	for idx, gen := range d.dirty {
		snap = append(snap, pending{idx, gen, d.segs[idx]})
	}
	d.mu.Unlock()
	for _, p := range snap {
		if err := d.syncSeg(p.f); err != nil {
			return err
		}
	}
	d.mu.Lock()
	for _, p := range snap {
		if d.dirty[p.idx] == p.gen {
			delete(d.dirty, p.idx)
		}
	}
	d.mu.Unlock()
	return nil
}

// syncSeg fdatasyncs one segment file and records the latency in
// filedev_sync_us, which therefore counts every data fdatasync.
func (d *Dev) syncSeg(f *os.File) error {
	t0 := time.Now()
	if err := fdatasync(f); err != nil {
		return err
	}
	d.syncUs.Record(time.Since(t0).Microseconds())
	return nil
}

// ZeroDurable implements pmem.Medium: write zeroes over the range, skipping
// segments that have no file (they already read as zero). Like any
// write-back the zeroes are durable by the next barrier, and the synced
// WriteMeta that could make the freed region reachable again begins with one.
func (d *Dev) ZeroDurable(off, size int64) error {
	if size <= 0 {
		return nil
	}
	if off < 0 || off+size > d.opt.Capacity {
		return fmt.Errorf("filedev: zero [%d, +%d) outside capacity %d", off, size, d.opt.Capacity)
	}
	var zeros [64 << 10]byte
	for size > 0 {
		idx := off / d.opt.SegmentBytes
		in := off % d.opt.SegmentBytes
		n := d.segSpan(idx) - in
		if n > size {
			n = size
		}
		f, err := d.segFile(idx, false)
		if err != nil {
			return err
		}
		if f != nil {
			for w := int64(0); w < n; {
				c := n - w
				if c > int64(len(zeros)) {
					c = int64(len(zeros))
				}
				if err := d.writeBack(f, idx, zeros[:c], in+w); err != nil {
					return err
				}
				w += c
			}
		}
		off += n
		size -= n
	}
	return nil
}

// DirtySegments returns the indices of segment files holding write-backs or
// zeroes not yet carried to stable storage (test introspection for the
// barriers).
func (d *Dev) DirtySegments() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, 0, len(d.dirty))
	for idx := range d.dirty {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteMeta implements pmem.Medium: frame payload as the next record and
// write it to the alternate slot. tear < 0 barriers, writes the whole record
// and fdatasyncs the manifest; otherwise only the record header plus the
// first tear payload bytes are written and nothing is synced — the slot then
// fails its checksum on reopen and the previous record stays authoritative.
func (d *Dev) WriteMeta(payload []byte, tear int64) error {
	if int64(len(payload))+recHeader > d.opt.MetaSlotBytes {
		return fmt.Errorf("filedev: metadata record %d bytes exceeds slot %d", len(payload), d.opt.MetaSlotBytes)
	}
	if tear < 0 {
		// Pending write-backs must be durable before this record is — the
		// zeroes of a freed region above all: once it commits, the record
		// can carry a segment mapping that reuses the region, and a power cut
		// that rolled back unsynced zeroes while keeping the record would let
		// the region's stale bytes validate as fresh entries on replay.
		if err := d.Sync(); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("filedev: closed")
	}
	seq := d.metaSeq + 1
	rec := make([]byte, recHeader+len(payload))
	binary.LittleEndian.PutUint64(rec[0:8], seq)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[16:24], recordSum(rec[0:16], payload))
	copy(rec[recHeader:], payload)
	slotOff := slot0Off + int64(seq%2)*d.opt.MetaSlotBytes
	if tear >= 0 {
		end := recHeader + tear
		if end > int64(len(rec)) {
			end = int64(len(rec))
		}
		return pwrite(d.manifest, rec[:end], slotOff)
	}
	if err := pwrite(d.manifest, rec, slotOff); err != nil {
		return err
	}
	if err := fdatasync(d.manifest); err != nil {
		return err
	}
	d.metaSeq = seq
	d.metaSyncs.Add(1)
	return nil
}

// LoadInto implements pmem.Medium: it reads the segment files over dst, a
// prefix of the mirrored address space, and zeroes every span no file covers
// — reattaching an arena's volatile image after a process restart, or
// reloading it after an in-process crash. It reads through a small buffer and
// writes only the pages of dst that differ from what the files hold: a
// reattach's image is fresh, all zeroes, and on Linux reading a page nobody
// wrote maps the shared zero page, so a reopen makes resident only what the
// store holds, not its capacity.
func (d *Dev) LoadInto(dst []byte) error {
	if int64(len(dst)) > d.opt.Capacity {
		return fmt.Errorf("filedev: image %d bytes, directory capacity %d", len(dst), d.opt.Capacity)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := make([]byte, loadChunk)
	for base := int64(0); base < int64(len(dst)); base += d.opt.SegmentBytes {
		idx := base / d.opt.SegmentBytes
		span := dst[base:min(base+d.segSpan(idx), int64(len(dst)))]
		f := d.segs[idx]
		for off := 0; off < len(span); off += len(buf) {
			chunk := span[off:min(off+len(buf), len(span))]
			src, n := buf[:len(chunk)], 0
			if f != nil {
				var err error
				if n, err = f.ReadAt(src, int64(off)); err != nil && err != io.EOF {
					return fmt.Errorf("filedev: segment %d: %w", idx, err)
				}
			}
			// A short file is the crash image of an interrupted create:
			// nothing past its length was ever durably acknowledged, so the
			// remainder of the span reads as zero.
			clear(src[n:])
			copyChangedPages(chunk, src)
		}
	}
	return nil
}

// loadChunk is the read size of LoadInto, a whole number of pages.
const loadChunk = 64 << 10

// copyChangedPages copies src over dst, an equal-length slice, one 4 KiB page
// at a time, skipping the pages that already hold the same bytes.
func copyChangedPages(dst, src []byte) {
	const page = 4 << 10
	for len(dst) > 0 {
		n := min(len(dst), page)
		if !bytes.Equal(dst[:n], src[:n]) {
			copy(dst[:n], src[:n])
		}
		dst, src = dst[n:], src[n:]
	}
}

// Close implements pmem.Medium: it syncs the manifest, every segment file,
// and — crucially — the directory entry before closing the descriptors, so a
// segment created shortly before a clean shutdown cannot be lost to an
// unsynced directory even if its creation-time dir sync was elided.
func (d *Dev) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if d.manifest != nil {
		keep(fdatasync(d.manifest))
		keep(d.manifest.Close())
	}
	for _, f := range d.segs {
		keep(d.syncSeg(f))
		keep(f.Close())
	}
	clear(d.dirty) // every segment file was just fdatasync'd
	// The Close-time directory sync is the last line of defence for any
	// directory entry still volatile (see UnsyncedCreates); skipping it under
	// DisableDirSync is what the regression test exploits to model the loss.
	if !d.opt.DisableDirSync {
		keep(d.syncDir())
		d.unsynced = nil
	}
	keep(d.dir.Close())
	return first
}
